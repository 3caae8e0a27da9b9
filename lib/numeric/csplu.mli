(** Complex sparse LU, and the one sparse LU planner.

    Used by the AC/PNOISE paths where the per-frequency / per-timestep
    system is [C·(1/h + jω) + G(t_k)]: the pattern is fixed by the
    circuit, only values change, so one {!plan} serves every frequency
    and every timestep.

    {!plan} is also the planner of the real {!Splu}: a real matrix is
    planned as complex values with a [+0] imaginary part.  With every
    imaginary part [±0] each magnitude the planner compares equals the
    real one ([Float.hypot x (±0.)] is [|x|]), so the plan is the one a
    real planner would record (docs/solver.md §2).

    A complex matrix is represented as a real {!Csr.t} carrying the
    pattern (its value array is ignored) plus a {!Cvec.t} of values
    aligned position-for-position with the pattern's storage — writing
    values at positions from {!Csr.index} keeps the two in sync.

    Solves are re-entrant: caller-provided scratch, no internal
    mutation, safe against one factorization from many domains.  The
    [_into] solves allocate nothing. *)

(** A plan is structure only: the orders and patterns Gilbert–Peierls
    elimination with threshold partial pivoting chose on representative
    values.  The replays of {!Splu} and {!Csplu} read these fields. *)
type plan = private {
  n : int;
  q : int array;  (** column order: permuted column j is original [q.(j)] *)
  pinv : int array;  (** original row -> pivot position *)
  prow : int array;  (** pivot position -> original row *)
  up : int array;  (** n+1 column pointers into [ui] *)
  ui : int array;  (** U entries: pivot positions k < j, elimination order *)
  lp : int array;  (** n+1 column pointers into [li] *)
  li : int array;  (** L entries: original row indices *)
  cp : int array;  (** n+1 pointers into [cri]/[cpos], per permuted column *)
  cri : int array;  (** original row of each entry of column [q.(j)] *)
  cpos : int array;  (** position of that entry in the pattern's storage *)
}

type t

exception Singular of int
(** [Singular j] — elimination found no acceptable pivot for original
    unknown (column) [j].  Unlike dense {!Clu.Singular}, the index is in
    original matrix coordinates so it can be mapped straight back to a
    circuit node or branch.  {!Splu.Singular} is this exception. *)

val plan : Csr.t -> Cvec.t -> plan
(** [plan pat vals] analyzes the pattern [pat] ({!Symbolic.Rcm} column
    order) with representative complex values [vals] (length
    [Csr.nnz pat]); the pivot tolerance is [1e-13 · max|a_ij|]. *)

val plan_dim : plan -> int
val dim : t -> int

val factorize : ?scratch:Cvec.t -> plan -> Csr.t -> Cvec.t -> t
(** Numeric factorization of values in the plan's pattern, into fresh
    factor storage.  [scratch] (at least [dim] entries, overwritten) is
    the elimination's work vector; without it one is allocated.  Raises
    [Singular j] when a replayed pivot falls below tolerance. *)

val refactorize : t -> scratch:Cvec.t -> Csr.t -> Cvec.t -> unit
(** Like {!factorize} but overwrites [t]'s storage; allocates nothing.
    Only for a factor no one else holds: a factor in an LPTV step bank
    may serve several steps after a bit-exact reuse, and is never
    refilled. *)

val solve_into : t -> scratch:Cvec.t -> Cvec.t -> Cvec.t -> unit
(** [solve_into t ~scratch b x] solves [A·x = b]; [b], [x] and
    [scratch] must be three distinct arrays. *)

val solve : t -> Cvec.t -> Cvec.t

val solve_transpose_into : t -> scratch:Cvec.t -> Cvec.t -> Cvec.t -> unit
(** Solves [Aᵀ·x = b] (plain transpose, not conjugate — matching
    {!Clu.solve_transpose_into}); the three arrays must be distinct. *)

val solve_transpose : t -> Cvec.t -> Cvec.t
