(** Execute the analysis cards of an elaborated deck and pretty-print
    the results — the engine behind the [varsim] CLI and the compute
    half of the {!Spice_job} pipeline. *)

(** Typed outcome of one analysis card, paired back with its card by
    {!render}. *)
type result =
  | R_op of Vec.t
  | R_dc_match of Sens.report
  | R_tran of Waveform.t * string list  (** waveform + resolved node list *)
  | R_ac of (float * Cx.t) list  (** (frequency, transfer) points *)
  | R_noise of Noise_lti.point array
  | R_pss of Pss.t
  | R_report of Report.t  (** mismatch DC / delay variation *)
  | R_freq of Report.t * Pss_osc.t  (** oscillator frequency variation *)
  | R_mc of Monte_carlo.result
  | R_yield of Yield.result
      (** importance-sampling yield estimate; a budget-truncated run
          raises {!Budget.Timed_out} from {!execute} instead of
          returning a partial result (cache safety: the budget is not
          in the job fingerprint) *)

val execute :
  ?domains:int -> ?steps:int -> ?f_offset:float ->
  ?policy:Retry.policy -> ?budget:Budget.t -> ?cache:Cache.t ->
  Spice_elab.t -> Spice_ast.analysis -> result
(** Run one analysis card against the deck's circuit, no printing.
    [domains] parallelizes the LPTV/PNOISE passes (the linear solver
    follows the circuit size, {!Linsys.solver_for}); [policy] and
    [budget] thread into
    the nonlinear engines (docs/robustness.md) — the LTI analyses
    ([.ac], [.noise], [.dcmatch]) are direct solves and ignore them.
    [cache] warm-starts the mismatch cards' PSS/PNOISE phases from
    previously converged state (bit-identical either way; see
    {!Analysis.prepare} and docs/serving.md). *)

val render :
  Format.formatter -> Spice_elab.t -> Spice_ast.analysis -> result -> unit
(** Print a result exactly as the CLI historically did.  Raises
    [Invalid_argument] if the result does not belong to the card. *)

val run_analysis :
  ?domains:int -> ?steps:int -> ?f_offset:float ->
  ?policy:Retry.policy -> ?budget:Budget.t -> ?cache:Cache.t ->
  Format.formatter -> Spice_elab.t -> Spice_ast.analysis -> unit
(** [execute] + [render]. *)

val run :
  ?domains:int -> ?steps:int -> ?f_offset:float ->
  ?policy:Retry.policy -> ?budget:Budget.t -> ?cache:Cache.t ->
  Format.formatter -> Spice_elab.t -> unit
(** Run every card in deck order.  A deck with no cards gets an [.op].
    The budget spans the whole deck: cards consume it cumulatively.
    When any sparse→dense degradation or krylov→dense fallback occurred
    during the deck, a final ["resilience summary: ..."] line reports
    the counts (a clean run prints nothing extra). *)
