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

(** {2 Fallback accounts}

    Each domain counts the fallback rungs its own solves take: a job
    runs on one domain at a time (a CLI process, a serve lane, a sweep
    lane), so sampling the counts around a job attributes to it exactly
    its own fallbacks, whatever other lanes do meanwhile.  Monte Carlo
    sample lanes {!adopt_account} the caller's account, so [.mc] and
    [.yield] samples count toward their job at any lane count. *)

type account

val account : unit -> account
(** The calling domain's account. *)

val adopt_account : account -> unit
(** Count the calling domain's fallbacks into [account] from now on. *)

val degradation_count : unit -> int
(** Monotonic count of sparse→dense fallbacks in the calling domain's
    account; sample it around a run to attribute degradations (what
    [Resilient.run] reports). *)

val krylov_fallback_count : unit -> int
(** Monotonic count of krylov→dense fallbacks (GMRES stagnation rungs
    taken) in the calling domain's account, the krylov twin of
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
  mutable plan : Csplu.plan option; (* built lazily from first values *)
  work : Vec.t; (* the replay's elimination scratch, size floats *)
  factored : Vec.t; (* the values [last] was factored from *)
  mutable last : Splu.t option; (* the last sparse factor handed out *)
}

type rsys = {
  size : int;
  repr : repr;
  sink : Stamp.jac_sink;
}

val make : ?solver:solver -> Circuit.t -> rsys
(** Build the system storage for a circuit: dense for [Dense], sparse
    for [Sparse] and [Krylov] (default {!solver_for} of its size). *)

(** A factorization, solvable from any number of domains
    concurrently. *)
type rfact = Fdense of Lu.t | Fsparse of Splu.t

(** {2 Plan cache}

    A process-global {!Lru} of sparse LU plans (128 entries), one for
    real and complex systems alike: a real matrix is planned as complex
    values with a [+0] imaginary part ({!Splu.plan}).  Keyed on the
    exact pattern and the exact planning values ({!Plan_key}), so a hit
    returns precisely the plan a fresh analysis would have computed —
    bit-identical replays, observable only as speed and as fewer
    ["symbolic.plan"] counter increments.  Hits/misses/evictions are
    the ["cache.plan.*"] counters (docs/serving.md). *)

val plan : ?counter:string -> Csr.t -> Cvec.t -> Csplu.plan
(** Plan (or fetch a cached plan for) a pattern on complex values
    aligned with its storage.  [counter] is bumped only when a plan is
    actually constructed: {!factorize} passes
    ["linsys.splu.plans"], [Lptv.build] ["lptv.csplu.plans"]. *)

val factorize : ?allow_degradation:bool -> rsys -> rfact
(** Factorize the current values.  Sparse: plans on first call; if a
    replay hits a dead pivot (values drifted far from the planning
    point) it re-plans once; if the re-planned factorization is still
    singular and [allow_degradation] (default true), the same values
    are re-factorized densely — counted as ["linsys.degraded_to_dense"]
    and in the calling domain's {!degradation_count} — before giving
    up.  Raises {!Singular_row} when nothing worked (or immediately on
    a singular dense/disallowed-degradation path).  The ["linsys.splu"]
    {!Faultsim} site can force the sparse path to fail; it is visited
    on every call.

    Sparse reuse: when the values equal, bit for bit
    ({!Vec.bits_equal}), those of the last sparse factor this system
    handed out, on the same plan, that factor is returned again
    (["linsys.fact.reused"]; only real replays count as
    ["linsys.fact.sparse"]).  A replay would produce exactly it.  A
    degraded (dense) factor is never kept.  So one factor can be held
    by several callers at once — step banks, [Newton.result.last_fact]
    — and no factor is ever refilled once returned. *)

val solve_into : rfact -> scratch:Vec.t -> Vec.t -> Vec.t -> unit
(** [solve_into f ~scratch b x] writes the solution of [A·x = b] into
    [x] without allocating; [b], [x] and [scratch] are distinct arrays
    of the system's size. *)

val solve_inplace : rfact -> scratch:Vec.t -> Vec.t -> unit
(** [solve_inplace f ~scratch b] overwrites [b] with the solution
    without allocating; [scratch] (length [dim]) must not alias [b]. *)

val solve_transpose : rfact -> Vec.t -> Vec.t

(** The constant C matrix in the representation matching the system;
    a sparse one carries, for each of its entries, that entry's position
    in the system's pattern values ([at]). *)
type rmat = Mdense of Mat.t | Msparse of { c : Csr.t; at : int array }

val c_matrix : rsys -> Circuit.t -> rmat
(** Stamp the circuit's C matrix for this system: dense for a dense
    system; for a sparse one straight into CSR ({!Stamp.c_csr}), never
    forming the n×n matrix, and mapped into the system's pattern once
    here. *)

val rmat_dense : rmat -> Mat.t
(** The dense matrix, converting a CSR exactly (entries and bits). *)

val rmat_csr : rmat -> Csr.t
(** The CSR matrix, converting a dense one with {!Csr.of_dense}. *)

