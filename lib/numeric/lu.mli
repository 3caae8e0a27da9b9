(** LU factorization with partial pivoting for dense real matrices.

    The factorization is computed once and reused for multiple solves,
    including transpose solves (needed by adjoint sensitivity analyses). *)

type t

exception Singular of int
(** Raised when a pivot smaller than the singularity threshold is met;
    the payload is the elimination column. *)

val factorize : Mat.t -> t
(** Factorize a square matrix.  Raises {!Singular} if a pivot magnitude
    falls below [1e-13] relative to the largest matrix entry. *)

val solve : t -> Vec.t -> Vec.t
(** [solve lu b] returns [x] with [A x = b]. *)

val solve_inplace : t -> Vec.t -> unit

val solve_into : t -> Vec.t -> Vec.t -> unit
(** [solve_into lu b x] stores [A⁻¹b] in [x] without allocating; [x]
    must not alias [b]. *)

val solve_transpose : t -> Vec.t -> Vec.t
(** [solve_transpose lu b] returns [x] with [Aᵀ x = b]. *)

val solve_transpose_into : t -> scratch:Vec.t -> Vec.t -> Vec.t -> unit
(** [solve_transpose_into lu ~scratch b x] stores [A⁻ᵀb] in [x] without
    allocating.  [scratch] is clobbered; it may alias [b] but [x] must
    alias neither. *)

val solve_mat : t -> Mat.t -> Mat.t
(** Column-wise solve: [solve_mat lu b] returns [X] with [A X = B]. *)

val det : t -> float

val dim : t -> int

val solve_dense : Mat.t -> Vec.t -> Vec.t
(** One-shot convenience: factorize and solve. *)

val inverse : Mat.t -> Mat.t
