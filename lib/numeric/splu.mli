(** Sparse LU with one-time symbolic analysis and in-place numeric
    refactorization (the KLU idea: plan once, replay many).

    {!plan} runs Gilbert–Peierls left-looking elimination with threshold
    partial pivoting on a representative matrix, recording the column
    order, the pivot order, and the exact L/U fill pattern.
    {!factorize}/{!refactorize} then replay that elimination against new
    values in the same pattern in O(nnz(L+U) · average column depth)
    without any searching — this is what makes per-timestep
    refactorization cheap in transient, PSS and LPTV loops.

    MNA matrices have structurally zero diagonals on voltage-source
    branch rows, so a no-pivot LU is unsafe; the plan's partial
    pivoting (with a mild diagonal preference for pattern stability)
    handles this, and the replay reuses the recorded pivot sequence.

    A [plan] and a [t] are immutable during solves: {!solve_into} and
    {!solve_transpose_into} take caller-provided scratch and touch no
    internal state, so one factorization can be solved against from
    many domains concurrently. *)

type plan
type t

exception Singular of int
(** [Singular j] — elimination found no acceptable pivot for original
    unknown (column) [j].  Unlike dense {!Lu.Singular}, the index is in
    original matrix coordinates so it can be mapped straight back to a
    circuit node or branch. *)

val plan : ?ordering:Symbolic.ordering -> ?pivot_tol:float -> Csr.t -> plan
(** Symbolic + pivoting analysis using the matrix's current values.
    Default ordering is {!Symbolic.Rcm}; default [pivot_tol] matches
    {!Lu.factorize} ([1e-13 · max|a_ij|]). *)

val plan_dim : plan -> int
val dim : t -> int
val nnz_lu : t -> int
(** Stored entries in L + U (fill included), for diagnostics. *)

val factorize : ?pivot_tol:float -> plan -> Csr.t -> t
(** Numeric factorization of a matrix with the plan's pattern.  Raises
    [Singular j] when a replayed pivot falls below tolerance — callers
    typically re-{!plan} once and retry, since a big value change can
    invalidate the recorded pivot order. *)

val refactorize : ?pivot_tol:float -> t -> Csr.t -> unit
(** Like {!factorize} but reuses [t]'s storage. *)

val solve_into : t -> scratch:Vec.t -> Vec.t -> Vec.t -> unit
(** [solve_into t ~scratch b x] solves [A·x = b].  [b], [x] and
    [scratch] must be three distinct arrays of size [dim t]. *)

val solve : t -> Vec.t -> Vec.t

val solve_inplace : t -> scratch:Vec.t -> Vec.t -> unit
(** [solve_inplace t ~scratch b] overwrites [b] with the solution
    without allocating; [scratch] must not alias [b]. *)

val solve_transpose_into : t -> scratch:Vec.t -> Vec.t -> Vec.t -> unit
(** [solve_transpose_into t ~scratch b x] solves [Aᵀ·x = b]; the three
    arrays must be distinct. *)

val solve_transpose : t -> Vec.t -> Vec.t
