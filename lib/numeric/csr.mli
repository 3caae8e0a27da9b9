(** Compressed-sparse-row matrices.

    The structure (row pointers [rp], sorted column indices [ci]) is
    fixed at construction; the value array [v] is mutable so a circuit's
    Jacobian can be re-stamped into the same pattern every Newton
    iteration / time step.  Complex matrices over the same pattern keep
    their values in a separate {!Cvec.t} aligned with [ci] (see
    {!Csplu}). *)

type t = private {
  nr : int;
  nc : int;
  rp : int array; (* length nr+1 *)
  ci : int array; (* length nnz, sorted within each row *)
  v : float array; (* length nnz *)
}

val make_unsafe :
  rows:int -> cols:int -> rp:int array -> ci:int array -> v:float array -> t
(** Trusted constructor used by {!Coo.to_csr}; performs only cheap shape
    checks. *)

val rows : t -> int
val cols : t -> int
val nnz : t -> int

val get : t -> int -> int -> float
(** [get t i j] is the stored value at (i, j), or [0.] outside the
    pattern. *)

val index : t -> int -> int -> int
(** Position of (i, j) in the value array.  Raises [Not_found] when the
    position is outside the pattern. *)

val clear : t -> unit
(** Zero all values, keeping the pattern. *)

val copy : t -> t
(** Same (physically shared) structure, fresh value array. *)

val mul_vec_into : t -> Vec.t -> Vec.t -> unit
(** [mul_vec_into a x y] sets [y <- A·x]; [x] must not alias [y]. *)

val tmul_vec_into : t -> Vec.t -> Vec.t -> unit
(** [tmul_vec_into a x y] sets [y <- Aᵀ·x]; [x] must not alias [y]. *)

val mul_vec : t -> Vec.t -> Vec.t

val to_dense : t -> Mat.t

val drop_zeros : t -> t
(** A new matrix without the stored entries that are exact zeros (of
    either sign): [drop_zeros (Coo.to_csr coo)] is what
    [of_dense] of the same stamps in a dense matrix gives. *)

val scale : float -> t -> t
(** [scale s a] is [s·A] as a new matrix, entries that round to zero
    dropped — equal to [of_dense (Mat.scale s (to_dense a))]. *)

val of_dense : ?drop_tol:float -> Mat.t -> t
(** Entries with magnitude ≤ [drop_tol] (default 0., i.e. keep exact
    nonzeros only) are dropped. *)
