(** One-call drivers for the paper's sensitivity-based mismatch analysis
    (Fig. 2 flow): PSS → pseudo-noise LPTV → PSD reading → σ +
    contribution breakdown.

    Each driver returns a {!Report.t} whose items are aligned with
    {!Circuit.mismatch_params}, so any two reports on the same circuit
    can be fed to {!Correlation}. *)

type pss_context = {
  pss : Pss.t;
  lptv : Lptv.t;
  sources : Pnoise.source array;
  domains : int; (** lane count used by the LPTV/PNOISE passes *)
  policy : Retry.policy; (** fallback policy the readings run under *)
  budget : Budget.t option; (** budget shared by all phases of the run *)
  cache : (Cache.t * string) option;
      (** warm-start cache and the key prefix readings file under *)
}

val prepare : ?steps:int -> ?f_offset:float -> ?warmup_periods:int ->
  ?domains:int -> ?policy:Retry.policy -> ?budget:Budget.t ->
  ?cache:Cache.t * string -> Circuit.t -> period:float -> pss_context
(** Solve the driven PSS and build the LPTV context with the mismatch
    pseudo-noise sources (offset frequency default 1 Hz).  [domains]
    (default 1) parallelizes the LPTV build and the subsequent PNOISE
    readings over that many OCaml domains; results are bit-identical
    for any value (docs/parallelism.md).  The linear solver of both the
    PSS and the LPTV layer follows the circuit size
    ({!Linsys.solver_for}, docs/solver.md).  [policy] and
    [budget] thread through every phase — PSS, LPTV build, and the
    subsequent readings made with this context (docs/robustness.md);
    expiry raises {!Budget.Timed_out}.

    [cache] is a {!Cache} handle plus a key prefix that MUST already
    encode the circuit fingerprint and every knob that shapes the
    solution (steps, period, f_offset) — see
    {!Spice_job} for the canonical construction.  With it, the PSS
    solve warm-starts from the cached converged state (re-verifying the
    residual, so a stale entry just falls back to the cold path) and
    the PNOISE sidebands read by {!dc_variation} / {!delay_variation} /
    {!delay_variation_psd} are replayed from cached transfer maps.
    Outputs are bit-identical either way; hits show up only as speed
    and in the ["cache.*"] counters (docs/serving.md). *)

val dc_variation : pss_context -> output:string -> Report.t
(** §V-A: variation of the DC (cycle-average) component of a node —
    e.g. the comparator input offset read from the Fig. 6 testbench's
    [vos] node.  Baseband (N = 0) pseudo-noise PSD. *)

type crossing = {
  edge : Waveform.edge;
  threshold : float;
  after : float; (** only consider crossings at/after this cycle time *)
}

val delay_variation :
  pss_context -> output:string -> crossing:crossing -> Report.t
(** §V-B: variation of the threshold-crossing instant of a node
    waveform, read from the time-domain pseudo-noise σ at the crossing
    divided by the waveform slope (the exact linear reading; Fig. 8). *)

val delay_variation_psd :
  pss_context -> output:string -> float
(** §V-B eq. (8): the passband-PSD (N = 1) delay σ estimate — the
    narrowband phase-modulation approximation, kept for comparison with
    {!delay_variation}. *)

val frequency_variation :
  ?steps:int -> ?policy:Retry.policy -> ?budget:Budget.t -> Circuit.t ->
  anchor:string ->
  f_guess:float -> Report.t * Pss_osc.t
(** §V-C: oscillator frequency variation via the adjoint period
    sensitivity (the well-conditioned form of eq. (9)). *)

val crossing_time : pss_context -> output:string -> crossing:crossing -> float
(** Nominal crossing instant on the PSS waveform (the delay reference
    for Monte-Carlo comparisons). *)

val frequency_variation_psd :
  ?f_offset:float -> ?domains:int -> ?policy:Retry.policy ->
  ?budget:Budget.t -> Pss_osc.t -> output:string -> float
(** The paper's literal eq. (9): read σ_f from the oscillator's
    passband pseudo-noise PSD at [f_offset] from the carrier.

    Caveat (demonstrated by the [ablation] bench): on a shooting/BE
    discretization the oscillator's neutral phase mode carries a small
    artificial damping, so the passband response flattens below the
    corresponding corner frequency instead of growing as 1/f — the 1 Hz
    reading collapses to ~0 and the estimate is only order-correct for
    offsets above the corner.  This is precisely why RF simulators use
    dedicated oscillator noise algorithms [Demir]; the numerically sound
    equivalent here is {!frequency_variation}'s adjoint period
    sensitivity, which this function exists to be compared against. *)
