(** DC operating-point analysis.

    Plain Newton first, then harder damping, then gmin stepping, then
    source stepping — the standard SPICE homotopy ladder made explicit
    (docs/robustness.md).  Each rung entered is recorded as an Obs span
    plus a ["ladder.dc.*"] counter; [policy] bounds the damping retries
    and [Retry.strict] (no homotopy) fails fast after plain Newton. *)

type options = {
  abstol : float;   (** residual tolerance (A / V) *)
  xtol : float;     (** solution-update tolerance (V / A) *)
  max_iter : int;
  gmin_final : float; (** residual gmin kept in the converged solve *)
}

val default_options : options

exception No_convergence of string

val solve :
  ?options:options -> ?solver:Linsys.solver -> ?policy:Retry.policy ->
  ?budget:Budget.t -> ?x0:Vec.t -> Circuit.t -> Vec.t
(** Operating point at t = 0 with all sources at their DC value.
    Raises {!No_convergence} when every ladder rung fails; the message
    names the offending node/branch when a factorization found a
    structurally singular row.  [budget] is ticked per Newton iteration
    and checked between rungs ({!Budget.Timed_out}). *)

val solve_at :
  ?options:options -> ?solver:Linsys.solver -> ?policy:Retry.policy ->
  ?budget:Budget.t -> ?x0:Vec.t -> t:float -> Circuit.t -> Vec.t
(** Operating point with sources evaluated at time [t] (used to
    initialize transient runs that start mid-waveform). *)
