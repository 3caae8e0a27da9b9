(** Dense complex matrices (row-major) in split storage: entry (i, j)
    is [(re.(i*c + j), im.(i*c + j))].  Kernels such as {!Clu} index
    the float arrays directly; arithmetic follows the stdlib [Complex]
    operation order, as in {!Cvec}. *)

type t = private { r : int; c : int; re : float array; im : float array }

val create : int -> int -> t
val identity : int -> t
val init : int -> int -> (int -> int -> Cx.t) -> t
val rows : t -> int
val cols : t -> int

val set : t -> int -> int -> Cx.t -> unit
val copy : t -> t
val sub : t -> t -> t
val mul_vec : t -> Cvec.t -> Cvec.t
val tmul_vec : t -> Cvec.t -> Cvec.t
(** Transpose (not conjugated) times vector. *)

val max_abs : t -> float
