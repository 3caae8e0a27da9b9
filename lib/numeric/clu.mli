(** LU factorization with partial pivoting for dense complex matrices.

    The factors live in split re/im storage ({!Cmat}); the [_into]
    solves index those float arrays directly and allocate nothing. *)

type t

exception Singular of int

val factorize : Cmat.t -> t
(** Raises {!Singular} if a pivot magnitude falls below [1e-13]
    relative to the largest matrix entry. *)

val solve : t -> Cvec.t -> Cvec.t

val solve_into : t -> Cvec.t -> Cvec.t -> unit
(** [solve_into lu b x] stores [A⁻¹b] in [x] without allocating; [x]
    must not alias [b]. *)

val solve_transpose : t -> Cvec.t -> Cvec.t
(** [solve_transpose lu b] returns [x] with [Aᵀ x = b] (plain transpose,
    no conjugation — what the adjoint LPTV solver needs). *)

val solve_transpose_into : t -> scratch:Cvec.t -> Cvec.t -> Cvec.t -> unit
(** [solve_transpose_into lu ~scratch b x] stores [A⁻ᵀb] in [x] without
    allocating.  [scratch] is clobbered; it may alias [b] but [x] must
    alias neither. *)

val dim : t -> int
val solve_dense : Cmat.t -> Cvec.t -> Cvec.t
