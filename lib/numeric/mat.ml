type t = { r : int; c : int; a : float array }

let create r c =
  if r < 0 || c < 0 then invalid_arg "Mat.create";
  { r; c; a = Array.make (r * c) 0.0 }

let identity n =
  let m = create n n in
  for i = 0 to n - 1 do
    m.a.((i * n) + i) <- 1.0
  done;
  m

let init r c f =
  let m = create r c in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      m.a.((i * c) + j) <- f i j
    done
  done;
  m

let of_arrays rows_arr =
  let r = Array.length rows_arr in
  if r = 0 then create 0 0
  else begin
    let c = Array.length rows_arr.(0) in
    Array.iter
      (fun row ->
        if Array.length row <> c then invalid_arg "Mat.of_arrays: ragged rows")
      rows_arr;
    init r c (fun i j -> rows_arr.(i).(j))
  end

let rows m = m.r
let cols m = m.c
let get m i j = m.a.((i * m.c) + j)
let set m i j v = m.a.((i * m.c) + j) <- v
let add_to m i j v = m.a.((i * m.c) + j) <- m.a.((i * m.c) + j) +. v
let copy m = { m with a = Array.copy m.a }
let fill m v = Array.fill m.a 0 (m.r * m.c) v

let blit src dst =
  if src.r <> dst.r || src.c <> dst.c then invalid_arg "Mat.blit";
  Array.blit src.a 0 dst.a 0 (src.r * src.c)

let transpose m = init m.c m.r (fun i j -> get m j i)

let check_same m n =
  if m.r <> n.r || m.c <> n.c then invalid_arg "Mat: dimension mismatch"

let add m n =
  check_same m n;
  { m with a = Array.map2 ( +. ) m.a n.a }

let sub m n =
  check_same m n;
  { m with a = Array.map2 ( -. ) m.a n.a }

let scale s m = { m with a = Array.map (fun v -> s *. v) m.a }

let mul m n =
  if m.c <> n.r then invalid_arg "Mat.mul: dimension mismatch";
  let p = create m.r n.c in
  for i = 0 to m.r - 1 do
    for k = 0 to m.c - 1 do
      let mik = m.a.((i * m.c) + k) in
      if mik <> 0.0 then
        for j = 0 to n.c - 1 do
          p.a.((i * p.c) + j) <- p.a.((i * p.c) + j) +. (mik *. n.a.((k * n.c) + j))
        done
    done
  done;
  p

let mul_vec m x =
  if m.c <> Array.length x then invalid_arg "Mat.mul_vec: dimension mismatch";
  Array.init m.r (fun i ->
      let s = ref 0.0 in
      for j = 0 to m.c - 1 do
        s := !s +. (m.a.((i * m.c) + j) *. x.(j))
      done;
      !s)

let mul_vec_into m x y =
  if m.c <> Array.length x then invalid_arg "Mat.mul_vec_into: dimension mismatch";
  if m.r <> Array.length y then invalid_arg "Mat.mul_vec_into: dimension mismatch";
  if x == y then invalid_arg "Mat.mul_vec_into: output aliases input";
  for i = 0 to m.r - 1 do
    let base = i * m.c in
    let s = ref 0.0 in
    for j = 0 to m.c - 1 do
      s := !s +. (Array.unsafe_get m.a (base + j) *. Array.unsafe_get x j)
    done;
    Array.unsafe_set y i !s
  done

let tmul_vec_into m x y =
  if m.r <> Array.length x then invalid_arg "Mat.tmul_vec_into: dimension mismatch";
  if m.c <> Array.length y then invalid_arg "Mat.tmul_vec_into: dimension mismatch";
  if x == y then invalid_arg "Mat.tmul_vec_into: output aliases input";
  Array.fill y 0 m.c 0.0;
  for i = 0 to m.r - 1 do
    let xi = Array.unsafe_get x i in
    if xi <> 0.0 then begin
      let base = i * m.c in
      for j = 0 to m.c - 1 do
        Array.unsafe_set y j
          (Array.unsafe_get y j +. (Array.unsafe_get m.a (base + j) *. xi))
      done
    end
  done

let tmul_vec m x =
  if m.r <> Array.length x then invalid_arg "Mat.tmul_vec: dimension mismatch";
  let y = Array.make m.c 0.0 in
  for i = 0 to m.r - 1 do
    let xi = x.(i) in
    if xi <> 0.0 then
      for j = 0 to m.c - 1 do
        y.(j) <- y.(j) +. (m.a.((i * m.c) + j) *. xi)
      done
  done;
  y

let row m i = Array.init m.c (fun j -> get m i j)
let col m j = Array.init m.r (fun i -> get m i j)

(* Vec's scan over the packed entries, one call per matrix; a NaN
   entry makes the scale NaN, which turns Lu's singular test off *)
let max_abs m = Vec.norm_inf m.a

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.r - 1 do
    Format.fprintf ppf "|";
    for j = 0 to m.c - 1 do
      Format.fprintf ppf " %10.4g" (get m i j)
    done;
    Format.fprintf ppf " |";
    if i < m.r - 1 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"
