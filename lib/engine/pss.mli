(** Periodic steady-state analysis of driven circuits by shooting
    Newton.

    Finds [x₀] with [x(T; x₀) = x₀] where the state transition is the
    backward-Euler integration of the circuit over one period on a
    uniform [steps]-point grid.  The shooting Jacobian is the monodromy
    matrix [Φ], accumulated from the per-step variational maps
    [A_k = (C/h + G_{k+1})⁻¹·(C/h)] — the same factorizations later
    reused by the LPTV noise analysis. *)

type t = {
  circuit : Circuit.t;
  period : float;
  steps : int;
  times : float array;  (** length steps+1 *)
  states : Vec.t array; (** length steps+1; [states.(steps) ≈ states.(0)] *)
  c_mat : Linsys.rmat;
      (** C, stamped once in [sys]'s storage ({!Linsys.c_matrix}): CSR
          on the sparse and krylov paths, never a dense n×n matrix *)
  sys : Linsys.rsys;    (** step-matrix storage the factorizations share *)
  step_facts : Linsys.rfact array;
      (** length steps; factorization of C/h + G at step k+1 *)
  mutable monodromy : Mat.t option;
      (** [Some] when the dense shooting path accumulated it, [None] on
          the matrix-free krylov path — use {!monodromy} to force it
          (cached here). *)
  iterations : int;
  residual : float;
}

exception No_convergence of string

val sweep :
  circuit:Circuit.t -> sys:Linsys.rsys -> c_mat:Linsys.rmat ->
  tran_options:Tran.options -> t0:float -> period:float -> steps:int ->
  x0:Vec.t -> ?budget:Budget.t -> ?policy:Retry.policy ->
  want_monodromy:bool -> unit ->
  float array * Vec.t array * Linsys.rfact array * Mat.t option
(** One backward-Euler pass over a period: grid times, states, per-step
    factorizations and (optionally) the monodromy matrix.  Exposed for
    the oscillator shooting solver. *)

val solve :
  ?steps:int -> ?max_iter:int -> ?tol:float -> ?solver:Linsys.solver ->
  ?policy:Retry.policy -> ?budget:Budget.t -> ?warmup_periods:int ->
  Circuit.t -> period:float -> t
(** [solve c ~period] computes the PSS.  The initial guess is the DC
    point integrated for [warmup_periods] (default 2) periods.
    [steps] defaults to 200.  A sweep or shooting loop that stalls is
    retried on a 2× finer grid, bounded by [policy.max_retries] (the
    ["ladder.pss.refine"] counter); [budget] is checked per shooting
    iterate and threads into every inner solve ({!Budget.Timed_out}).

    [solver] (default {!Linsys.solver_for} the circuit size) is used by
    the DC start, the warmup and every sweep; [Krylov] selects the
    matrix-free shooting Newton: the update solves [(I − Φ)·δ = r] by
    {!Gmres} where each [Φ·v] is one variational sweep through
    [step_facts] — no dense
    monodromy is accumulated (the ["pss.krylov"] span and
    ["gmres.*"] counters trace it).  GMRES stagnation (or an injected
    ["pss.gmres"] fault) drops the rest of the run onto the dense rung
    — counted as ["ladder.pss.gmres_fallback"] and
    {!Linsys.krylov_fallback_count} — with a trajectory bit-identical
    to a dense-only run. *)

val monodromy : t -> Mat.t
(** The dense monodromy matrix, accumulating it from [step_facts] on
    first use if the krylov path skipped it (counted as
    ["pss.monodromy.dense"]). *)

val state_at : t -> k:int -> Vec.t
(** Grid state, [k] ∈ [0, steps]. *)

val xdot : t -> k:int -> Vec.t
(** Backward-difference state derivative at grid point [k] ≥ 1. *)

val node_samples : t -> string -> Vec.t
(** The steps-long sample vector (k = 1..steps) of a node voltage —
    what the harmonic extraction works on. *)

val fundamental : t -> string -> Cx.t
(** Complex Fourier-series coefficient c₁ of a node waveform. *)

val amplitude : t -> string -> float
(** Amplitude of the fundamental: 2·|c₁| (the paper's A_c). *)

val floquet_multipliers : t -> Cx.t array
(** Eigenvalues of the monodromy matrix, sorted by decreasing
    magnitude: the periodic orbit's stability multipliers.  All inside
    the unit circle for a damped driven circuit; an oscillator carries
    one multiplier ≈ 1 (the neutral phase mode — see Pss_osc and the
    eq. (9) ablation). *)

val to_waveform : t -> Waveform.t
