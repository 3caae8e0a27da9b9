(* Split storage: entry i is (re.(i), im.(i)).  Every kernel spells the
   stdlib [Complex] arithmetic out on the two float arrays, in the same
   operation order, so results are bit-identical to the boxed
   [Cx.t array] representation and the loops never allocate. *)

type t = { re : float array; im : float array }

let create n = { re = Array.make n 0.0; im = Array.make n 0.0 }
let dim x = Array.length x.re

let get x i : Cx.t = { re = x.re.(i); im = x.im.(i) }

let set x i (z : Cx.t) =
  x.re.(i) <- z.re;
  x.im.(i) <- z.im

let init n f =
  let x = create n in
  for i = 0 to n - 1 do
    set x i (f i)
  done;
  x

let copy x = { re = Array.copy x.re; im = Array.copy x.im }
let of_real v = { re = Array.copy v; im = Array.make (Array.length v) 0.0 }
let real x = Array.copy x.re

let check_dim x y =
  if Array.length x.re <> Array.length y.re then
    invalid_arg "Cvec: dimension mismatch"

let add x y =
  check_dim x y;
  { re = Array.map2 ( +. ) x.re y.re; im = Array.map2 ( +. ) x.im y.im }

let sub x y =
  check_dim x y;
  { re = Array.map2 ( -. ) x.re y.re; im = Array.map2 ( -. ) x.im y.im }

let scale a x =
  let y = copy x in
  let ar = a.Cx.re and ai = a.Cx.im in
  for i = 0 to dim x - 1 do
    let xr = x.re.(i) and xi = x.im.(i) in
    y.re.(i) <- (ar *. xr) -. (ai *. xi);
    y.im.(i) <- (ar *. xi) +. (ai *. xr)
  done;
  y

let add_inplace x y =
  check_dim x y;
  let xre = x.re and xim = x.im and yre = y.re and yim = y.im in
  for i = 0 to Array.length xre - 1 do
    Array.unsafe_set xre i (Array.unsafe_get xre i +. Array.unsafe_get yre i);
    Array.unsafe_set xim i (Array.unsafe_get xim i +. Array.unsafe_get yim i)
  done

let scale_inplace a x =
  let ar = a.Cx.re and ai = a.Cx.im in
  let xre = x.re and xim = x.im in
  for i = 0 to Array.length xre - 1 do
    let xr = Array.unsafe_get xre i and xi = Array.unsafe_get xim i in
    Array.unsafe_set xre i ((ar *. xr) -. (ai *. xi));
    Array.unsafe_set xim i ((ar *. xi) +. (ai *. xr))
  done

let axpy a x y =
  check_dim x y;
  let ar = a.Cx.re and ai = a.Cx.im in
  let xre = x.re and xim = x.im and yre = y.re and yim = y.im in
  for i = 0 to Array.length xre - 1 do
    let xr = Array.unsafe_get xre i and xi = Array.unsafe_get xim i in
    Array.unsafe_set yre i
      (Array.unsafe_get yre i +. ((ar *. xr) -. (ai *. xi)));
    Array.unsafe_set yim i
      (Array.unsafe_get yim i +. ((ar *. xi) +. (ai *. xr)))
  done

let dot x y =
  check_dim x y;
  let xre = x.re and xim = x.im and yre = y.re and yim = y.im in
  let sr = ref 0.0 and si = ref 0.0 in
  for i = 0 to Array.length xre - 1 do
    (* conj x.(i) times y.(i), as Complex.mul (Complex.conj x) y *)
    let xr = Array.unsafe_get xre i and xi = -.Array.unsafe_get xim i in
    let yr = Array.unsafe_get yre i and yi = Array.unsafe_get yim i in
    sr := !sr +. ((xr *. yr) -. (xi *. yi));
    si := !si +. ((xr *. yi) +. (xi *. yr))
  done;
  { Cx.re = !sr; im = !si }

let norm2 x =
  let xre = x.re and xim = x.im in
  let s = ref 0.0 in
  for i = 0 to Array.length xre - 1 do
    let xr = Array.unsafe_get xre i and xi = Array.unsafe_get xim i in
    s := !s +. ((xr *. xr) +. (xi *. xi))
  done;
  sqrt !s

let norm_inf x =
  let m = ref 0.0 in
  for i = 0 to dim x - 1 do
    m := Float.max !m (Float.hypot x.re.(i) x.im.(i))
  done;
  !m

let blit src dst =
  check_dim src dst;
  let n = Array.length src.re in
  Array.blit src.re 0 dst.re 0 n;
  Array.blit src.im 0 dst.im 0 n

let fill x (z : Cx.t) =
  Array.fill x.re 0 (dim x) z.re;
  Array.fill x.im 0 (dim x) z.im
