(** Damped Newton–Raphson over a {!Linsys} backend.

    Shared by the DC solver and the per-step transient solves.
    Telemetry: each solve adds to the ["newton.solves"],
    ["newton.iterations"], ["newton.failures"] and
    ["newton.damping_events"] counters when {!Obs.enabled}. *)

type result = {
  x : Vec.t;
  iterations : int;
  converged : bool;
  residual_norm : float;
  residual_history : float array;
      (** infinity-norm residual at each iterate, oldest first — kept so
          non-convergence can be diagnosed instead of discarded *)
  worst_row : int option;
      (** on failure, the unknown with the largest final residual — see
          {!Circuit.row_name}; [None] on success *)
  last_fact : Linsys.rfact option;
      (** factorization of the Jacobian at the solution, reusable by
          variational/monodromy propagation *)
  singular_row : int option;
      (** when the Jacobian factorization failed, the original MNA
          unknown index it died on — see {!Circuit.row_name} *)
}

exception No_convergence of string

val history_string : ?max_entries:int -> float array -> string
(** Compact ["… 1e-2 -> 3e-4 -> 2e-5"] rendering of a residual
    trajectory (last [max_entries], default 6) for error messages. *)

val solve :
  eval:(x:Vec.t -> g:Vec.t -> unit) ->
  sys:Linsys.rsys ->
  x0:Vec.t ->
  ?budget:Budget.t ->
  ?policy:Retry.policy ->
  ?max_iter:int ->
  ?abstol:float ->
  ?xtol:float ->
  ?max_step:float ->
  unit ->
  result
(** [eval] fills the residual at [x] and stamps the Jacobian through
    [sys.sink] (the sink is cleared and factorized here).  [max_step]
    clamps the infinity-norm of each Newton update (voltage limiting);
    default 1.0.  Returns with [converged = false] rather than raising
    so callers can retry with homotopy.

    [budget] is ticked once per iteration and raises
    {!Budget.Timed_out} at expiry.  [policy] (default {!Retry.default})
    bounds the transient-failure re-attempts of each eval+factorize
    stage — a non-finite residual or singular factorization is re-run
    up to [policy.max_retries] times (deterministic, so an injected
    transient fault recovers bit-identically) — and gates the sparse
    backend's degrade-to-dense fallback.  Fault sites:
    ["newton.residual"] ([Nan]) and ["newton.factorize"]
    ([Singular]). *)
