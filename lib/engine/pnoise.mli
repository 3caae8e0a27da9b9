(** Cyclostationary noise analysis (PNOISE) on top of {!Lptv}.

    Each noise input is an injection waveform over the PSS grid plus a
    PSD value at the analysis offset frequency.  The output PSD at
    sideband [N·f₀ + f] is Σ_i |TF_i(N)|²·PSD_i(f), with the per-source
    breakdown retained — the paper's "contribution list" that powers
    correlation (eq. 10–12) and design-sensitivity (eq. 14–16)
    extraction at no extra simulation cost. *)

type source = {
  src_name : string;
  src_inject : Lptv.injection;
  src_psd : float; (** PSD at the offset frequency (σ² for pseudo-noise) *)
}

type contribution = {
  source : source;
  transfer : Cx.t; (** TF from the source to the output sideband *)
  share : float;   (** |TF|²·PSD *)
}

type sideband = {
  output : string;
  harmonic : int;
  f_offset : float;
  total_psd : float;
  contributions : contribution array;
      (** in the order of the [sources] argument (for mismatch sources:
          {!Circuit.mismatch_params} order, so contribution lists of two
          outputs align index-by-index for eq. (12)) *)
}

val mismatch_sources : Lptv.t -> source array
(** One pseudo-noise source per mismatch parameter of the PSS circuit,
    with the bias-dependent injection evaluated along the cycle and
    PSD = σ² (the 1 Hz value of the σ²/f flicker pseudo-noise). *)

val physical_sources : ?temp:float -> Lptv.t -> source array
(** Thermal device noise, periodically modulated by the PSS bias. *)

val analyze :
  ?policy:Retry.policy -> ?budget:Budget.t ->
  Lptv.t -> output:string -> harmonic:int -> sources:source array -> sideband
(** Adjoint analysis of one output sideband (single backward pass, then
    one inner product per source, in source order on the calling
    domain).  [budget] is checked before every source; expiry raises
    {!Budget.Timed_out}.  [policy] bounds the re-runs of the source
    loop killed by a transient ["pnoise.transfer"] fault. *)

val analyze_sample :
  ?policy:Retry.policy -> ?budget:Budget.t ->
  Lptv.t -> output:string -> k:int -> sources:source array -> sideband
(** Time-domain variant: the functional is the response at grid point
    [k]; [total_psd] is then the variance density of the output voltage
    at that instant (Fig. 8 statistical waveform; threshold-crossing
    delay extraction). *)

val sigma_waveform :
  ?policy:Retry.policy -> ?budget:Budget.t ->
  ?via:[ `Auto | `Forward | `Adjoint ] ->
  Lptv.t -> output:string -> sources:source array -> float array
(** σ(t_k), k = 1..steps: the ±σ envelope of Fig. 8.

    [via] picks the reading: [`Forward] is one direct {!Lptv.solve_source}
    per source (O(sources) periodic solves); [`Adjoint] is one
    {!Lptv.adjoint_sample} functional per grid point (O(steps) solves,
    independent of the source count — how a ≥500-parameter deck stays
    affordable).  [`Auto] (default) takes whichever count is smaller.
    The two readings agree to solver tolerance (see the parity test);
    counted as ["pnoise.sigma_waveform.forward"/".adjoint"].  [budget]
    is checked before every source or grid point. *)

val pp_sideband : Format.formatter -> sideband -> unit
