(** Periodic steady state of autonomous circuits (oscillators).

    The period is an unknown: the augmented shooting system is

    {v
      [ x(T; x₀) - x₀ ]          [ Φ - I   ẋ(T) ]
      [ v_a(x₀) - V*  ] ,  J  =  [ e_aᵀ      0  ]
    v}

    with a phase-anchor condition pinning one node voltage at t = 0 so
    the phase of the limit cycle is fixed.  The initial guess comes from
    a free-running transient and a zero-crossing period estimate. *)

type t = {
  pss : Pss.t;             (** converged cycle, period = found period *)
  frequency : float;
  anchor_row : int;        (** MNA row pinned by the phase condition *)
  anchor_value : float;
}

exception No_convergence of string

val solve :
  ?steps:int -> ?max_iter:int -> ?tol:float -> ?settle_periods:float ->
  ?policy:Retry.policy -> ?budget:Budget.t ->
  Circuit.t -> anchor:string -> f_guess:float -> t
(** [solve c ~anchor ~f_guess] finds the limit cycle.  [anchor] is a
    swinging node used both for the period estimate and the phase
    condition; [f_guess] seeds the free-running warmup (it may be off
    by a factor of ~2).  [settle_periods] (default 20) warmup cycles
    let the start-up transient die out.  [budget] is checked per
    shooting iterate and threads into the warmup and every sweep
    ({!Budget.Timed_out}); [policy] threads into the inner solves. *)

val frequency : t -> float
