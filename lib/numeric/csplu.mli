(** Complex sparse LU — the {!Splu} algorithm over complex values.

    Used by the AC/PNOISE paths where the per-frequency / per-timestep
    system is [C·(1/h + jω) + G(t_k)]: the pattern is fixed by the
    circuit, only values change, so one {!plan} serves every frequency
    and every timestep.

    A complex matrix is represented as a real {!Csr.t} carrying the
    pattern (its value array is ignored) plus a {!Cvec.t} of values
    aligned position-for-position with the pattern's storage — writing
    values at positions from {!Csr.index} keeps the two in sync.

    Solves are re-entrant: caller-provided scratch, no internal
    mutation, safe against one factorization from many domains.  The
    [_into] solves allocate nothing. *)

type plan
type t

exception Singular of int
(** Pivot failure at an original unknown (column) index, as in
    {!Splu.Singular}. *)

val plan :
  ?ordering:Symbolic.ordering -> ?pivot_tol:float -> Csr.t -> Cvec.t -> plan
(** [plan pat vals] analyzes the pattern [pat] with representative
    complex values [vals] (length [Csr.nnz pat]). *)

val plan_dim : plan -> int
val dim : t -> int

val factorize : ?pivot_tol:float -> plan -> Csr.t -> Cvec.t -> t
val refactorize : ?pivot_tol:float -> t -> Csr.t -> Cvec.t -> unit

val solve_into : t -> scratch:Cvec.t -> Cvec.t -> Cvec.t -> unit
(** [solve_into t ~scratch b x] solves [A·x = b]; [b], [x] and
    [scratch] must be three distinct arrays. *)

val solve : t -> Cvec.t -> Cvec.t

val solve_transpose_into : t -> scratch:Cvec.t -> Cvec.t -> Cvec.t -> unit
(** Solves [Aᵀ·x = b] (plain transpose, not conjugate — matching
    {!Clu.solve_transpose_into}); the three arrays must be distinct. *)

val solve_transpose : t -> Cvec.t -> Cvec.t
