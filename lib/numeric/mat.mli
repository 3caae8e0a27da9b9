(** Dense row-major matrices of floats: entry (i, j) is [a.(i*c + j)].

    Sized for circuit-simulation workloads (tens to a few hundred
    unknowns), so the implementation favours clarity over blocking.
    Kernels on the Newton path ({!Lu}, the stamp sinks, the transient
    step) index [a] directly: under [-opaque] every {!get}/{!set} boxes
    its float (docs/solver.md §8). *)

type t = private { r : int; c : int; a : float array }

val create : int -> int -> t
(** [create r c] is the zero matrix with [r] rows and [c] columns. *)

val identity : int -> t

val init : int -> int -> (int -> int -> float) -> t

val of_arrays : float array array -> t
(** Rows must all have the same length. *)

val rows : t -> int

val cols : t -> int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val add_to : t -> int -> int -> float -> unit
(** [add_to m i j v] performs [m.(i).(j) <- m.(i).(j) + v]. *)

val copy : t -> t

val fill : t -> float -> unit

val blit : t -> t -> unit

val transpose : t -> t

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val mul : t -> t -> t
(** Matrix-matrix product. *)

val mul_vec : t -> Vec.t -> Vec.t
(** Matrix-vector product. *)

val tmul_vec : t -> Vec.t -> Vec.t
(** [tmul_vec m x] is [transpose m * x] without forming the transpose. *)

val mul_vec_into : t -> Vec.t -> Vec.t -> unit
(** [mul_vec_into m x y] stores [m·x] in [y] without allocating; [y]
    must not alias [x]. *)

val tmul_vec_into : t -> Vec.t -> Vec.t -> unit
(** [tmul_vec_into m x y] stores [mᵀ·x] in [y] without allocating; [y]
    must not alias [x]. *)

val row : t -> int -> Vec.t

val col : t -> int -> Vec.t

val max_abs : t -> float
(** Largest [|m(i,j)|], [0.] for an empty matrix.  A NaN entry makes it
    NaN: the NaN, payload included, that a [Float.max] fold over the
    [Float.abs] of the entries returns. *)

val pp : Format.formatter -> t -> unit
