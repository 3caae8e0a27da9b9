(** Retry/fallback policy for the resilient analysis runtime.

    One record threads through every engine and controls the fallback
    ladder (docs/robustness.md):

    - [max_retries] bounds how often a failed stage is re-attempted —
      a Newton eval/factorize that came back non-finite or singular, an
      LPTV/PNOISE loop killed by a transient exception, a PSS sweep
      that stalls.
      Re-attempts are deterministic re-runs, so a {e transient} fault
      (the kind {!Faultsim} injects) recovers bit-identically, while a
      persistent failure escalates after the bound.
    - [backoff] shrinks the Newton step clamp on each damping-ladder
      rung of the DC solve.
    - [allow_homotopy] gates the gmin-stepping and source-stepping
      rungs (DC) and the step-refinement rung (PSS shooting).
    - [allow_degradation] gates the sparse→dense {!Linsys} fallback on
      a persistently singular sparse factorization.

    {!default} is what analyses run with when no policy is given and
    preserves the historical homotopy behavior; {!strict} fails fast on
    the first non-convergence with no ladder, no retries and no backend
    degradation (the CLI [--strict] flag). *)

type policy = {
  max_retries : int;
  backoff : float;
  allow_homotopy : bool;
  allow_degradation : bool;
}

val default : policy
(** [{ max_retries = 2; backoff = 0.5; allow_homotopy = true;
      allow_degradation = true }] *)

val strict : policy
(** [{ max_retries = 0; backoff = 0.5; allow_homotopy = false;
      allow_degradation = false }] *)

val of_cli : max_retries:int -> strict:bool -> policy
(** [strict:true] wins; otherwise {!default} with [max_retries]. *)

val backoff_delay : base:float -> attempt:int -> float
(** [base * 2^(attempt-1)] seconds — the delay the sweep supervisor
    sleeps before re-attempt number [attempt] (1-based) of a crashed or
    hung point.  Pure and jitter-free: the same policy and the same
    failures always produce the identical attempt timeline
    (docs/robustness.md).  Raises [Invalid_argument] for [attempt < 1]. *)

val rung : string -> unit
(** Record entering a fallback-ladder rung: counts
    [ladder.<name>] when {!Obs.enabled} (e.g. ["dc.gmin"],
    ["pss.refine"], ["newton.retry"]). *)

val with_transients : ?policy:policy -> label:string -> (unit -> 'a) -> 'a
(** Run [f], re-running it on a {!Faultsim.Injected} exception up to
    [policy.max_retries] times (counting [ladder.<label>.retry] per
    re-run) — the recovery wrapper for the LPTV/PNOISE loops, whose
    bodies are deterministic.  Other exceptions pass through. *)
