type t = {
  nr : int;
  nc : int;
  rp : int array;
  ci : int array;
  v : float array;
}

let make_unsafe ~rows ~cols ~rp ~ci ~v =
  if rows < 0 || cols < 0 || Array.length rp <> rows + 1
     || Array.length ci <> Array.length v
     || rp.(rows) <> Array.length ci
  then invalid_arg "Csr.make_unsafe";
  { nr = rows; nc = cols; rp; ci; v }

let rows t = t.nr
let cols t = t.nc
let nnz t = t.rp.(t.nr)

(* binary search for column [j] within row [i]'s sorted segment *)
let index t i j =
  if i < 0 || i >= t.nr || j < 0 || j >= t.nc then invalid_arg "Csr.index";
  let lo = ref t.rp.(i) and hi = ref (t.rp.(i + 1) - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = t.ci.(mid) in
    if c = j then found := mid else if c < j then lo := mid + 1 else hi := mid - 1
  done;
  if !found < 0 then raise Not_found else !found

let get t i j = match index t i j with
  | p -> t.v.(p)
  | exception Not_found -> 0.0

let add t i j x =
  let p = index t i j in
  t.v.(p) <- t.v.(p) +. x
let add_at t p x = t.v.(p) <- t.v.(p) +. x
let clear t = Array.fill t.v 0 (Array.length t.v) 0.0
let copy t = { t with v = Array.copy t.v }

let mul_vec_into t x y =
  if Array.length x <> t.nc || Array.length y <> t.nr then
    invalid_arg "Csr.mul_vec_into: dimension mismatch";
  if x == y then invalid_arg "Csr.mul_vec_into: output aliases input";
  for i = 0 to t.nr - 1 do
    let s = ref 0.0 in
    for p = t.rp.(i) to t.rp.(i + 1) - 1 do
      s :=
        !s
        +. (Array.unsafe_get t.v p
            *. Array.unsafe_get x (Array.unsafe_get t.ci p))
    done;
    Array.unsafe_set y i !s
  done

let tmul_vec_into t x y =
  if Array.length x <> t.nr || Array.length y <> t.nc then
    invalid_arg "Csr.tmul_vec_into: dimension mismatch";
  if x == y then invalid_arg "Csr.tmul_vec_into: output aliases input";
  Array.fill y 0 t.nc 0.0;
  for i = 0 to t.nr - 1 do
    let xi = Array.unsafe_get x i in
    if xi <> 0.0 then
      for p = t.rp.(i) to t.rp.(i + 1) - 1 do
        let j = Array.unsafe_get t.ci p in
        Array.unsafe_set y j
          (Array.unsafe_get y j +. (Array.unsafe_get t.v p *. xi))
      done
  done

let mul_vec t x =
  let y = Array.make t.nr 0.0 in
  mul_vec_into t x y;
  y

let to_dense t =
  let m = Mat.create t.nr t.nc in
  for i = 0 to t.nr - 1 do
    for p = t.rp.(i) to t.rp.(i + 1) - 1 do
      Mat.add_to m i t.ci.(p) t.v.(p)
    done
  done;
  m

(* entries of [f v] that are exact zeros (either sign) are dropped — the
   rule [of_dense] applies, so mapping the CSR of a dense matrix equals
   the CSR of the mapped dense matrix *)
let filter_map_values f t =
  let keep = Array.map f t.v in
  let rp = Array.make (t.nr + 1) 0 in
  let w = ref 0 in
  let ci = Array.make (nnz t) 0 and v = Array.make (nnz t) 0.0 in
  for i = 0 to t.nr - 1 do
    rp.(i) <- !w;
    for p = t.rp.(i) to t.rp.(i + 1) - 1 do
      if Float.abs keep.(p) > 0.0 then begin
        ci.(!w) <- t.ci.(p);
        v.(!w) <- keep.(p);
        incr w
      end
    done
  done;
  rp.(t.nr) <- !w;
  make_unsafe ~rows:t.nr ~cols:t.nc ~rp ~ci:(Array.sub ci 0 !w)
    ~v:(Array.sub v 0 !w)

let drop_zeros t = filter_map_values Fun.id t
let scale s t = filter_map_values (fun x -> s *. x) t

let of_dense ?(drop_tol = 0.0) m =
  let nr = Mat.rows m and nc = Mat.cols m in
  let keep x = Float.abs x > drop_tol in
  let rp = Array.make (nr + 1) 0 in
  for i = 0 to nr - 1 do
    let cnt = ref 0 in
    for j = 0 to nc - 1 do
      if keep (Mat.get m i j) then incr cnt
    done;
    rp.(i + 1) <- rp.(i) + !cnt
  done;
  let nnz = rp.(nr) in
  let ci = Array.make nnz 0 and v = Array.make nnz 0.0 in
  let w = ref 0 in
  for i = 0 to nr - 1 do
    for j = 0 to nc - 1 do
      let x = Mat.get m i j in
      if keep x then begin
        ci.(!w) <- j;
        v.(!w) <- x;
        incr w
      end
    done
  done;
  make_unsafe ~rows:nr ~cols:nc ~rp ~ci ~v
