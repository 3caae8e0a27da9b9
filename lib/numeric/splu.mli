(** Sparse LU with one-time symbolic analysis and in-place numeric
    refactorization (the KLU idea: plan once, replay many).

    {!plan} records, on a representative matrix, the column order, the
    pivot order and the exact L/U fill pattern of Gilbert–Peierls
    left-looking elimination with threshold partial pivoting.  The
    planner is {!Csplu.plan}, run on the real values with a [+0]
    imaginary part, so a real and a complex matrix share one plan type
    (docs/solver.md §2).  {!factorize}/{!refactorize} then replay that
    elimination against new values in the same pattern in
    O(nnz(L+U) · average column depth) without any searching — this is
    what makes per-timestep refactorization cheap in transient, PSS and
    LPTV loops.

    MNA matrices have structurally zero diagonals on voltage-source
    branch rows, so a no-pivot LU is unsafe; the plan's partial
    pivoting (with a mild diagonal preference for pattern stability)
    handles this, and the replay reuses the recorded pivot sequence.

    A [plan] and a [t] are immutable during solves: {!solve_into} and
    {!solve_transpose_into} take caller-provided scratch and touch no
    internal state, so one factorization can be solved against from
    many domains concurrently. *)

type plan = Csplu.plan
type t

exception Singular of int
(** {!Csplu.Singular} itself: [Singular j] — no acceptable pivot for
    original unknown (column) [j].  Unlike dense {!Lu.Singular}, the
    index is in original matrix coordinates so it can be mapped straight
    back to a circuit node or branch. *)

val plan : Csr.t -> plan
(** [Csplu.plan csr (Cvec.of_real csr.v)]: the plan of the matrix's
    current values ({!Symbolic.Rcm} order, pivot tolerance
    [1e-13 · max|a_ij|] as in {!Lu.factorize}). *)

val dim : t -> int
val nnz_lu : t -> int
(** Stored entries in L + U (fill included), for diagnostics. *)

val factorize : ?scratch:Vec.t -> plan -> Csr.t -> t
(** Numeric factorization of a matrix with the plan's pattern, into
    fresh factor storage.  [scratch] (at least [dim] floats, overwritten)
    is the elimination's work vector; without it one is allocated.
    Raises [Singular j] when a replayed pivot falls below tolerance —
    callers typically re-{!plan} once and retry, since a big value
    change can invalidate the recorded pivot order. *)

val refactorize : t -> scratch:Vec.t -> Csr.t -> unit
(** Like {!factorize} but overwrites [t]'s storage; allocates nothing.
    Only for a factor no one else holds: a factorization handed out by
    [Linsys.factorize] may be shared (kept in [Pss.step_facts], an LPTV
    step bank and [Newton.result.last_fact] at once, after a bit-exact
    reuse), and is never refilled. *)

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
