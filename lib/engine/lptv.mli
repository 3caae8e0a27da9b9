(** Linear periodically time-varying small-signal analysis around a
    periodic steady state.

    For a stationary unit phasor input at offset frequency [f], writing
    the response as [x(t) = e^{j2πft}·p(t)] with [p] T-periodic turns the
    LPTV problem into the periodic boundary-value problem

    {v C·(ṗ + jω·p) + G(t)·p = b(t),   p(0) = p(T) v}

    discretized with backward Euler on the PSS grid:

    {v M_k·p_k = (C/h)·p_{k-1} + b_k,  M_k = C(1/h + jω) + G(t_k) v}

    Solved two ways:
    - {!solve_source}: direct forward recurrence per input (also yields
      the full periodic response waveform, Fig. 8);
    - {!adjoint}: one backward pass per output functional, after which
      the transfer from {e any} input is an inner product — this is what
      makes the analysis cost independent of the number of mismatch
      parameters (paper §I).

    Output harmonics index the cyclostationary sidebands: harmonic [N]
    of [p] is the response component at frequency [N·f₀ + f]. *)

type t

val build : ?domains:int -> ?solver:Linsys.solver -> ?policy:Retry.policy ->
  ?budget:Budget.t -> Pss.t -> f_offset:float -> t
(** Linearize around the PSS and factorize all [M_k] plus the periodic
    wrap matrix [I - Φ(ω)].  [f_offset] is the input offset frequency
    (1 Hz for the pseudo-noise mismatch reading).

    [domains] (default 1) runs the per-step factorizations and the
    monodromy columns on a {!Domain_pool} of that many lanes.  Results
    are bit-identical for any [domains] — see docs/parallelism.md.

    [solver] (default {!Linsys.solver_for} the circuit size) selects
    dense [Clu] step solvers ([Dense]) or sparse [Csplu] ones ([Sparse],
    [Krylov]: one shared symbolic plan, per-lane numeric workspaces),
    and the wrap treatment.  On the matrix-free [Krylov] path, [build]
    never forms [Φ(ω)]: it stops after the step factorizations —
    O(m·nnz) — and the wrap solves in {!solve_source}/the adjoints run
    restarted {!Gmres} where each product [(I - Φ(ω))·v] is one
    variational sweep through the step solvers.  GMRES stagnation (or an injected ["lptv.gmres"]
    fault) falls back to the dense factorization, built once and
    bit-identical to the dense path's — counted as
    ["ladder.lptv.gmres_fallback"] and {!Linsys.krylov_fallback_count}.

    [budget] expiry stops every lane from claiming further work and the
    build raises {!Budget.Timed_out} at the next phase boundary.  A pool
    phase killed by a transient lane exception (the ["lptv.factor"]
    fault site) is deterministically re-run up to [policy.max_retries]
    times (["ladder.lptv.retry"]). *)

val pss : t -> Pss.t
val steps : t -> int
val f_offset : t -> float

type injection = int -> (int * float) list
(** Sparse right-hand side at grid step [k] (1-based, k ∈ [1, steps]);
    entries are (MNA row, value) with the PSS bias at [t_k] already
    folded in. *)

val constant_injection : (int * float) list -> injection

val solve_source : t -> injection -> Cvec.t array
(** Periodic response [p_k], k = 0..steps (with [p_0 = p_steps]). *)

val harmonic_of_response : t -> Cvec.t array -> row:int -> harmonic:int -> Cx.t
(** Fourier coefficient of harmonic [N] of response row [row]. *)

type functional = Cvec.t array
(** Adjoint weights λ̃_k = ∂y/∂b_k (k = 1..steps, index k-1): the
    derivative of a scalar output functional w.r.t. the forcing at each
    grid step. *)

val adjoint_harmonic : t -> row:int -> harmonic:int -> functional
(** Functional y = harmonic [N] Fourier coefficient of row [row]. *)

val adjoint_sample : t -> row:int -> k:int -> functional
(** Functional y = p_k(row) (time-domain sample, for threshold-crossing
    delay reading and the Fig. 8 statistical waveform). *)

val apply : functional -> injection -> Cx.t
(** Transfer from an injection to the adjoint's output functional:
    Σ_k λ̃_kᵀ·b_k. *)
