(** The typed job API of the pipeline: one [submit] call shared by the
    CLI ([varsim run]), the sweep workers and the [varsim serve] daemon
    (docs/serving.md).

    A job is an elaborated deck plus engine knobs; its {!fingerprint}
    is the content-addressed identity the result cache keys on.
    [submit] consults the result cache first — a hit returns the
    rendered bytes of the original run verbatim (byte-identical, all
    plan/PSS work skipped); a miss computes from scratch through
    {!Spice_run}, then stores the bytes. *)

type request = {
  deck : Spice_elab.t;
  domains : int;  (** sample lanes of the [.mc]/[.yield] cards *)
  steps : int option;  (** PSS grid steps (default 200) *)
  f_offset : float option;  (** pseudo-noise offset (default 1 Hz) *)
  policy : Retry.policy;
  budget : Budget.t option;
  cache : Cache.t option;
}

type outcome = {
  output : string;  (** rendered bytes, exactly what [varsim run] prints *)
  fingerprint : string;  (** the job fingerprint the result is keyed on *)
  cache_hit : bool;  (** bytes came from the result cache *)
  degradations : int;  (** sparse→dense fallbacks during this run (0 on hit) *)
  krylov_fallbacks : int;  (** krylov→dense fallbacks (0 on hit) *)
  elapsed_s : float;
  provenance : string;  (** [Version.provenance] of the responding engine *)
}

val request :
  ?domains:int -> ?steps:int -> ?f_offset:float ->
  ?policy:Retry.policy -> ?budget:Budget.t -> ?cache:Cache.t ->
  Spice_elab.t -> request
(** Build a request with the CLI's defaults (1 domain, default retry
    policy, no budget, no cache). *)

val fingerprint : request -> string
(** {!Spice_elab.fingerprint} of the deck plus the result-shaping knobs
    ([steps], [f_offset]).  [domains] is excluded (sample lane counts
    are bit-identical by design); [policy]/[budget] are excluded (they
    bound how long a run may take, not what a completed run prints).
    The linear solver follows the circuit size, so one deck has one
    fingerprint whichever entry point submits it. *)

val submit : request -> outcome
(** Run the job (or replay its cached result).  Engine exceptions
    ({!Budget.Timed_out}, convergence failures, elaboration errors)
    propagate to the caller exactly as the non-cached path raised them.
    When {!Faultsim} is armed at any non-[cache.*] site, the result
    cache is bypassed entirely — faulty runs are neither stored nor
    served. *)
