(** Monte-Carlo mismatch analysis — the baseline the paper benchmarks
    against.

    Every sample draws an independent Gaussian deviation for each
    mismatch parameter, applies it to a copy of the circuit, and runs
    the caller's full nonlinear measurement.

    Determinism: each sample's generator is derived from (seed, sample
    index), so results are bit-identical regardless of [domains] —
    Monte Carlo parallelizes embarrassingly across OCaml 5 domains. *)

type result = {
  values : float array array; (** values.(sample).(output) *)
  weights : float array;
      (** per-sample importance weight, aligned with [values]; all 1.0
          unless a [weight] hook was given *)
  summaries : Stats.summary array; (** one per output *)
  failed : int;  (** samples whose measurement did not converge or were
                     skipped by budget expiry *)
  timed_out : bool; (** the budget expired before all samples ran *)
  seconds : float;
}

val run :
  ?seed:int -> ?domains:int -> ?first:int ->
  ?transform:(float array -> float array) ->
  ?weight:(index:int -> float array -> float) ->
  ?stop:(unit -> bool) ->
  ?budget:Budget.t ->
  n:int -> circuit:Circuit.t -> measure:(Circuit.t -> float array) -> unit ->
  result
(** [measure] may raise; such samples are dropped (counted in
    [failed]).  [domains] (default 1, at least 1) sizes the sample lanes
    ({!Lanes.run} on domains); above 1 samples run in parallel (the
    measurement function must not mutate shared state); every sample
    lane adopts
    the caller's {!Linsys.account}, so the samples' solver fallbacks
    count toward the calling job at any lane count.  [transform] maps the raw
    i.i.d. standard-normal-scaled deviation vector before application —
    pass {!Correlated.transform} composed appropriately to sample
    correlated mismatch (paper §III-C).

    [first] offsets the global sample index: sample [i] of this call
    uses the stream of index [first + i] under [seed], so a run split
    into batches reproduces a single monolithic run exactly — the seam
    the yield engine's batched importance-sampling loop builds on.

    [weight] computes the per-sample importance weight from the global
    index and the {e raw, pre-transform} deviation vector (the density
    the likelihood ratio is taken against).  It must be pure.

    [stop] is polled between samples (merged with the budget's stop
    condition); returning [true] skips unstarted samples, which count
    as [failed].

    [budget] expiry degrades gracefully to a partial population instead
    of raising: unstarted samples are skipped (counted in [failed]) and
    [timed_out] is set — summaries are then over the completed samples
    only. *)

val run_scalar :
  ?seed:int -> ?domains:int -> ?first:int ->
  ?transform:(float array -> float array) ->
  ?weight:(index:int -> float array -> float) ->
  ?stop:(unit -> bool) ->
  ?budget:Budget.t ->
  n:int -> circuit:Circuit.t -> measure:(Circuit.t -> float) -> unit ->
  result
(** Single-output convenience wrapper. *)

val samples_of : result -> int -> float array
(** Column extraction: all sample values of one output. *)

val draw_deltas : Rng.t -> Circuit.mismatch_param array -> float array
(** One Gaussian deviation vector (exposed for reuse in experiments
    that must evaluate linear and nonlinear models on identical
    samples). *)

val deltas_for_sample :
  seed:int -> index:int -> Circuit.mismatch_param array -> float array
(** The deviation vector of sample [index] under [seed] — the exact
    samples {!run} uses, for common-random-number comparisons. *)
