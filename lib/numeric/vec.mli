(** Dense vectors of floats.

    A thin layer over [float array] providing the linear-algebra
    operations used throughout the simulator.  All operations allocate a
    fresh result unless the name ends in [_inplace]. *)

type t = float array

val create : int -> t
(** [create n] is the zero vector of dimension [n]. *)

val make : int -> float -> t
(** [make n x] is the vector of dimension [n] filled with [x]. *)

val init : int -> (int -> float) -> t

val dim : t -> int

val copy : t -> t

val of_list : float list -> t

val basis : int -> int -> t
(** [basis n i] is the [i]-th canonical basis vector of dimension [n]. *)

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val axpy : float -> t -> t -> unit
(** [axpy a x y] performs [y <- a*x + y] in place. *)

val dot : t -> t -> float

val norm2 : t -> float
(** Euclidean norm. *)

val norm_inf : t -> float
(** Largest [|x.(i)|], [0.] for the empty vector.  A NaN entry makes
    it NaN: the NaN, payload included, that a [Float.max] fold over
    the [Float.abs] of the entries returns. *)

val dist_inf : t -> t -> float
(** [dist_inf x y] is [norm_inf (sub x y)] without the allocation. *)

val bits_equal : t -> t -> bool
(** Same length and the same IEEE-754 bits at every index
    ([Int64.bits_of_float]): [+0.] and [-0.] differ, and a NaN equals
    a NaN with the same payload.  Stops at the first difference. *)

val map : (float -> float) -> t -> t

val map2 : (float -> float -> float) -> t -> t -> t

val fill : t -> float -> unit

val blit : t -> t -> unit
(** [blit src dst] copies [src] into [dst]; dimensions must agree. *)

val max_abs_index : t -> int
(** Index of the entry with the largest magnitude. *)

val pp : Format.formatter -> t -> unit
