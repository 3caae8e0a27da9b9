(** Transient analysis with fixed base step and local step halving.

    Integrates [C·ẋ + g(x, t) = 0] from an initial state (by default
    the DC operating point) with backward Euler or the trapezoidal
    rule.  Each accepted step solves the implicit system by damped
    Newton; when Newton fails, the step is halved (up to a depth
    limit). *)

type scheme = Backward_euler | Trapezoidal

type options = {
  scheme : scheme;
  abstol : float;
  xtol : float;
  max_newton : int;
  gmin : float;
  max_halvings : int;
}

val default_options : options

exception Step_failed of float
(** Raised with the failing time when step halving bottoms out. *)

val run :
  ?options:options -> ?solver:Linsys.solver -> ?policy:Retry.policy ->
  ?budget:Budget.t -> ?x0:Vec.t -> ?record:bool ->
  Circuit.t -> tstart:float -> tstop:float -> dt:float -> unit -> Waveform.t
(** [run c ~tstart ~tstop ~dt ()] integrates and records every accepted
    base step (sub-steps from halving are not recorded).  [record:false]
    keeps only the first and last states (fast settling runs).

    [budget] is checked before every base step and ticked per Newton
    iteration inside the steps ({!Budget.Timed_out}); [policy] bounds
    the transient-fault re-runs of a step (the ["tran.step"] fault
    site) and threads into the per-step Newton solves. *)

val step :
  options:options -> circuit:Circuit.t -> sys:Linsys.rsys ->
  c_mat:Linsys.rmat -> x_prev:Vec.t -> t_prev:float -> t_next:float ->
  ?budget:Budget.t -> ?policy:Retry.policy ->
  ?forcing:(int * float) list -> unit -> Newton.result
(** One implicit integration step (exposed for the shooting solvers,
    which also need the Jacobian factorization at the solution).
    [sys] holds the step-matrix storage (build once with {!Linsys.make},
    pair with [c_mat] from {!Linsys.c_matrix}).  [forcing] adds a sparse
    constant term to the step residual — the hook the transient-noise
    analysis injects its per-step noise currents through. *)
