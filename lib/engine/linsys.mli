(** The linear-solver seam of the MNA engines.

    Every engine bottoms out in "stamp a Jacobian-shaped matrix,
    factorize it, solve against it".  [Linsys] hides the storage —
    dense [Mat]/[Lu] (the bit-exact historical reference) or the
    sparse [Csr]/[Splu] stack — behind one interface, and picks it from
    the circuit size ({!solver_for}), so the seed circuits keep their
    exact dense arithmetic while large circuits get O(nnz·fill)
    factorization.  See docs/solver.md. *)

(** One solver regime per analysis:
    - [Dense]: dense storage, explicit dense monodromy in the periodic
      layer ([Pss] shooting, [Lptv.build]);
    - [Sparse]: sparse LU, explicit dense monodromy;
    - [Krylov]: sparse LU, matrix-free GMRES periodic wrap (docs/solver.md,
      "Matrix-free shooting"). *)
type solver = Dense | Sparse | Krylov

val auto_threshold : int
(** Size at/above which {!solver_for} leaves the dense regime (64). *)

val solver_for : int -> solver
(** The regime every analysis uses for a system of that size: [Dense]
    below {!auto_threshold}, [Krylov] at or above it.  The [?solver]
    arguments of {!make}, [Dc], [Tran], [Pss] and [Lptv] override it
    only for parity oracles and kernel benches. *)

val krylov_fallback_count : unit -> int
(** Process-wide monotonic count of krylov→dense fallbacks (GMRES
    stagnation rungs taken), the krylov twin of
    {!degradation_count}. *)

val note_krylov_fallback : unit -> unit
(** Record one krylov→dense fallback (counted as
    ["linsys.krylov_fallback"]). *)

exception Singular_row of int
(** Factorization failure, carrying the original MNA unknown index so
    callers can name the floating node via {!Circuit.row_name}. *)

(** A stampable system matrix: values are rewritten through [sink]
    every Newton iteration / time step, the structure never changes. *)
type repr =
  | Rdense of Mat.t
  | Rsparse of rsparse

and rsparse = {
  pat : Csr.t; (* Stamp.pattern structure; v holds the current values *)
  mutable plan : Splu.plan option; (* built lazily from first values *)
}

type rsys = {
  size : int;
  repr : repr;
  sink : Stamp.jac_sink;
  mutable degraded : bool;
      (** at least one factorization of this system fell back from the
          sparse to the dense backend — see {!factorize} *)
}

val make : ?solver:solver -> Circuit.t -> rsys
(** Build the system storage for a circuit: dense for [Dense], sparse
    for [Sparse] and [Krylov] (default {!solver_for} of its size). *)

val degraded : rsys -> bool
(** This system's sticky sparse→dense degradation flag — result records
    ({!Pss.t} via its [sys], analysis outcomes) surface it so a
    degraded run is never silent. *)

val degradation_count : unit -> int
(** Process-wide monotonic count of sparse→dense fallbacks; sample it
    around a run to attribute degradations (what [Resilient.run]
    reports). *)

(** A factorization, solvable from any number of domains
    concurrently. *)
type rfact = Fdense of Lu.t | Fsparse of Splu.t

(** {2 Plan cache}

    A process-global {!Lru} of symbolic factorization plans, keyed on
    the exact pattern and the exact planning values ({!Plan_key}), so a
    hit returns precisely the plan a fresh analysis would have computed
    — bit-identical replays, observable only as speed and as fewer
    ["symbolic.plan"] counter increments.  Hits/misses/evictions are
    the ["cache.plan.*"] counters (docs/serving.md). *)

val splu_plan : ?counter:string -> Csr.t -> Splu.plan
(** Plan (or fetch a cached plan for) a real pattern on its current
    values.  [counter] (default ["linsys.splu.plans"]) is bumped only
    when a plan is actually constructed. *)

val csplu_plan : ?counter:string -> Csr.t -> Cvec.t -> Csplu.plan
(** The complex twin, for the AC/LPTV [Csplu] planning sites. *)

val set_plan_cache_capacity : int -> unit
(** Resize both plan caches (default 64 entries each); 0 disables
    them. *)

val factorize : ?allow_degradation:bool -> rsys -> rfact
(** Factorize the current values.  Sparse: plans on first call; if a
    replay hits a dead pivot (values drifted far from the planning
    point) it re-plans once; if the re-planned factorization is still
    singular and [allow_degradation] (default true), the same values
    are re-factorized densely — counted as ["linsys.degraded_to_dense"]
    and latched in {!degraded} — before giving up.  Raises
    {!Singular_row} when nothing worked (or immediately on a singular
    dense/disallowed-degradation path).  The ["linsys.splu"]
    {!Faultsim} site can force the sparse path to fail. *)

val solve : rfact -> Vec.t -> Vec.t
val solve_inplace : rfact -> scratch:Vec.t -> Vec.t -> unit
(** [solve_inplace f ~scratch b] overwrites [b] with the solution
    without allocating; [scratch] (length [dim]) must not alias [b]. *)

val solve_transpose : rfact -> Vec.t -> Vec.t

(** The constant C matrix in the representation matching the system. *)
type rmat = Mdense of Mat.t | Msparse of Csr.t

val c_matrix : rsys -> Circuit.t -> rmat
(** Stamp the circuit's C matrix for this system: dense for a dense
    system; for a sparse one straight into CSR ({!Stamp.c_csr}), never
    forming the n×n matrix. *)

val rmat_dense : rmat -> Mat.t
(** The dense matrix, converting a CSR exactly (entries and bits). *)

val rmat_csr : rmat -> Csr.t
(** The CSR matrix, converting a dense one with {!Csr.of_dense}. *)

val rmat_mul_vec_into : rmat -> Vec.t -> Vec.t -> unit
