(** Dense complex vectors in split storage.

    Entry [i] is [(re.(i), im.(i))]: two unboxed float arrays instead
    of an array of boxed {!Cx.t} records, so a store is a float write
    with no allocation and no write barrier.  Every operation follows
    the stdlib [Complex] operation order, so results are bit-identical
    to computing entry by entry with {!Cx} (docs/solver.md, "Complex
    storage").  Kernels in other modules index [re]/[im] directly; the
    two arrays always have the same length. *)

type t = { re : float array; im : float array }

val create : int -> t
val init : int -> (int -> Cx.t) -> t
val dim : t -> int

val get : t -> int -> Cx.t
(** Boxes one entry — for API edges, not inner loops. *)

val set : t -> int -> Cx.t -> unit
val copy : t -> t
val of_real : Vec.t -> t
val real : t -> Vec.t
val add : t -> t -> t
val sub : t -> t -> t
val scale : Cx.t -> t -> t

val add_inplace : t -> t -> unit
(** [add_inplace x y] performs [x <- x + y] without allocating. *)

val scale_inplace : Cx.t -> t -> unit
(** [scale_inplace a x] performs [x <- a*x] without allocating. *)

val axpy : Cx.t -> t -> t -> unit
(** [axpy a x y] performs [y <- a*x + y] in place, without allocating. *)

val dot : t -> t -> Cx.t
(** Hermitian inner product: conj(x)·y. *)

val norm2 : t -> float
val norm_inf : t -> float

val blit : t -> t -> unit
(** [blit src dst] copies [src] into [dst] without allocating. *)

val fill : t -> Cx.t -> unit
