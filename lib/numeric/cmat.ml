(* Row-major split storage: entry (i, j) is (re.(i*c + j), im.(i*c + j)),
   with the stdlib [Complex] operation order in every kernel. *)

type t = { r : int; c : int; re : float array; im : float array }

let create r c =
  if r < 0 || c < 0 then invalid_arg "Cmat.create";
  { r; c; re = Array.make (r * c) 0.0; im = Array.make (r * c) 0.0 }

let identity n =
  let m = create n n in
  for i = 0 to n - 1 do
    m.re.((i * n) + i) <- 1.0
  done;
  m

let rows m = m.r
let cols m = m.c

let set m i j (z : Cx.t) =
  m.re.((i * m.c) + j) <- z.re;
  m.im.((i * m.c) + j) <- z.im

let init r c f =
  let m = create r c in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      set m i j (f i j)
    done
  done;
  m

let copy m = { m with re = Array.copy m.re; im = Array.copy m.im }

let sub m n =
  if m.r <> n.r || m.c <> n.c then invalid_arg "Cmat: dimension mismatch";
  { m with re = Array.map2 ( -. ) m.re n.re; im = Array.map2 ( -. ) m.im n.im }

let mul_vec m (x : Cvec.t) =
  if m.c <> Cvec.dim x then invalid_arg "Cmat.mul_vec: dimension mismatch";
  let y = Cvec.create m.r in
  for i = 0 to m.r - 1 do
    let sr = ref 0.0 and si = ref 0.0 in
    for j = 0 to m.c - 1 do
      let ar = m.re.((i * m.c) + j) and ai = m.im.((i * m.c) + j) in
      let xr = x.re.(j) and xi = x.im.(j) in
      sr := !sr +. ((ar *. xr) -. (ai *. xi));
      si := !si +. ((ar *. xi) +. (ai *. xr))
    done;
    y.re.(i) <- !sr;
    y.im.(i) <- !si
  done;
  y

let tmul_vec m (x : Cvec.t) =
  if m.r <> Cvec.dim x then invalid_arg "Cmat.tmul_vec: dimension mismatch";
  let y = Cvec.create m.c in
  for i = 0 to m.r - 1 do
    let xr = x.re.(i) and xi = x.im.(i) in
    if xr <> 0.0 || xi <> 0.0 then
      for j = 0 to m.c - 1 do
        let ar = m.re.((i * m.c) + j) and ai = m.im.((i * m.c) + j) in
        y.re.(j) <- y.re.(j) +. ((ar *. xr) -. (ai *. xi));
        y.im.(j) <- y.im.(j) +. ((ar *. xi) +. (ai *. xr))
      done
  done;
  y

let max_abs m =
  let s = ref 0.0 in
  for p = 0 to Array.length m.re - 1 do
    s := Float.max !s (Float.hypot m.re.(p) m.im.(p))
  done;
  !s
