type t = float array

let create n = Array.make n 0.0
let make = Array.make
let init = Array.init
let dim = Array.length
let copy = Array.copy
let of_list = Array.of_list

let basis n i =
  let v = create n in
  v.(i) <- 1.0;
  v

let check_dim x y =
  if Array.length x <> Array.length y then
    invalid_arg "Vec: dimension mismatch"

(* loops, not Array.init/map closures, so no entry is boxed on its
   way into the result (docs/solver.md §8) *)
let add x y =
  check_dim x y;
  let z = Array.make (Array.length x) 0.0 in
  for i = 0 to Array.length x - 1 do
    z.(i) <- x.(i) +. y.(i)
  done;
  z

let sub x y =
  check_dim x y;
  let z = Array.make (Array.length x) 0.0 in
  for i = 0 to Array.length x - 1 do
    z.(i) <- x.(i) -. y.(i)
  done;
  z

let scale a x =
  let z = Array.make (Array.length x) 0.0 in
  for i = 0 to Array.length x - 1 do
    z.(i) <- a *. x.(i)
  done;
  z

let axpy a x y =
  check_dim x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (a *. x.(i))
  done

let dot x y =
  check_dim x y;
  let s = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    s := !s +. (x.(i) *. y.(i))
  done;
  !s

let norm2 x = sqrt (dot x x)

(* [Float.max acc a] for an [a] that is an [abs] result (+0 upward, or
   a NaN), compared inline: [Float.max] calls C ([caml_signbit])
   whenever its [a > acc] fails.  For a non-NaN [a] it is [a] if
   [a > acc] and [acc] otherwise, for every [acc] the fold can hold
   (+0 upward, or a NaN of either sign).  A NaN [a] still goes to
   [Float.max], so the NaN that survives is the one it keeps. *)
let[@inline] max_nonneg acc a =
  if a > acc then a else if a <> a then Float.max acc a else acc

let norm_inf x =
  let m = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    m := max_nonneg !m (Float.abs x.(i))
  done;
  !m

let dist_inf x y =
  check_dim x y;
  let m = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    m := max_nonneg !m (Float.abs (x.(i) -. y.(i)))
  done;
  !m

(* [a = b] means equal bits unless both are zeros, whose signs [1/z]
   tells apart; [a <> b] means different bits unless both are NaNs,
   whose payloads only [Int64.bits_of_float] (a C call) compares *)
let[@inline] same_bits a b =
  if a = b then a <> 0.0 || 1.0 /. a = 1.0 /. b
  else
    a <> a && b <> b
    && Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let bits_equal x y =
  Array.length x = Array.length y
  &&
  let i = ref 0 in
  while !i < Array.length x && same_bits x.(!i) y.(!i) do
    incr i
  done;
  !i = Array.length x

let map = Array.map
let map2 = Array.map2
let fill x v = Array.fill x 0 (Array.length x) v

let blit src dst =
  check_dim src dst;
  Array.blit src 0 dst 0 (Array.length src)

let max_abs_index x =
  if Array.length x = 0 then invalid_arg "Vec.max_abs_index: empty";
  let best = ref 0 in
  for i = 1 to Array.length x - 1 do
    if Float.abs x.(i) > Float.abs x.(!best) then best := i
  done;
  !best

let pp ppf x =
  Format.fprintf ppf "[@[%a@]]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       (fun ppf v -> Format.fprintf ppf "%.6g" v))
    (Array.to_list x)
