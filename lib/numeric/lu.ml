type t = {
  n : int;
  lu : Mat.t; (* packed L (unit diagonal) and U *)
  perm : int array; (* row permutation: row i of PA is row perm.(i) of A *)
  sign : float;
}

exception Singular of int

let factorize m =
  let n = Mat.rows m in
  if Mat.cols m <> n then invalid_arg "Lu.factorize: matrix not square";
  let scale = Mat.max_abs m in
  let tol = 1e-13 *. Float.max scale 1e-300 in
  let lu = Mat.copy m in
  let perm = Array.init n (fun i -> i) in
  let sign = ref 1.0 in
  for k = 0 to n - 1 do
    (* partial pivoting: find the largest entry in column k at/below row k *)
    let piv = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs (Mat.get lu i k) > Float.abs (Mat.get lu !piv k) then
        piv := i
    done;
    if !piv <> k then begin
      for j = 0 to n - 1 do
        let t = Mat.get lu k j in
        Mat.set lu k j (Mat.get lu !piv j);
        Mat.set lu !piv j t
      done;
      let t = perm.(k) in
      perm.(k) <- perm.(!piv);
      perm.(!piv) <- t;
      sign := -. !sign
    end;
    let pivot = Mat.get lu k k in
    if Float.abs pivot < tol then raise (Singular k);
    (* indices below stay in [0, n) by construction, so the elimination
       inner loops can skip bounds checks *)
    for i = k + 1 to n - 1 do
      let f = Mat.unsafe_get lu i k /. pivot in
      Mat.unsafe_set lu i k f;
      if f <> 0.0 then
        for j = k + 1 to n - 1 do
          Mat.unsafe_set lu i j
            (Mat.unsafe_get lu i j -. (f *. Mat.unsafe_get lu k j))
        done
    done
  done;
  { n; lu; perm; sign = !sign }

let dim t = t.n

let solve_into t b x =
  if Array.length b <> t.n || Array.length x <> t.n then
    invalid_arg "Lu.solve_into: dimension mismatch";
  if x == b then invalid_arg "Lu.solve_into: output aliases input";
  let n = t.n in
  for i = 0 to n - 1 do
    x.(i) <- b.(t.perm.(i))
  done;
  (* forward substitution with unit-diagonal L *)
  for i = 1 to n - 1 do
    let s = ref (Array.unsafe_get x i) in
    for j = 0 to i - 1 do
      s := !s -. (Mat.unsafe_get t.lu i j *. Array.unsafe_get x j)
    done;
    Array.unsafe_set x i !s
  done;
  (* back substitution with U *)
  for i = n - 1 downto 0 do
    let s = ref (Array.unsafe_get x i) in
    for j = i + 1 to n - 1 do
      s := !s -. (Mat.unsafe_get t.lu i j *. Array.unsafe_get x j)
    done;
    Array.unsafe_set x i (!s /. Mat.unsafe_get t.lu i i)
  done

let solve t b =
  let x = Array.make t.n 0.0 in
  solve_into t b x;
  x

let solve_inplace t b =
  let x = solve t b in
  Array.blit x 0 b 0 t.n

(* Aᵀx = b  ⇔  Uᵀ Lᵀ Px = b: solve Uᵀy = b (forward), Lᵀz = y (backward),
   then undo the permutation.  [scratch] holds y; it may alias [b] (the
   solve then runs in place) but never [x]. *)
let solve_transpose_into t ~scratch b x =
  if Array.length b <> t.n || Array.length x <> t.n
     || Array.length scratch <> t.n
  then invalid_arg "Lu.solve_transpose_into: dimension mismatch";
  if x == scratch || x == b then
    invalid_arg "Lu.solve_transpose_into: output aliases an input";
  let n = t.n in
  if scratch != b then Array.blit b 0 scratch 0 n;
  let y = scratch in
  for i = 0 to n - 1 do
    let s = ref (Array.unsafe_get y i) in
    for j = 0 to i - 1 do
      s := !s -. (Mat.unsafe_get t.lu j i *. Array.unsafe_get y j)
    done;
    Array.unsafe_set y i (!s /. Mat.unsafe_get t.lu i i)
  done;
  for i = n - 1 downto 0 do
    let s = ref (Array.unsafe_get y i) in
    for j = i + 1 to n - 1 do
      s := !s -. (Mat.unsafe_get t.lu j i *. Array.unsafe_get y j)
    done;
    Array.unsafe_set y i !s
  done;
  for i = 0 to n - 1 do
    x.(t.perm.(i)) <- y.(i)
  done

let solve_transpose t b =
  let x = Array.make t.n 0.0 in
  solve_transpose_into t ~scratch:(Array.copy b) b x;
  x

let solve_mat t b =
  if Mat.rows b <> t.n then invalid_arg "Lu.solve_mat: dimension mismatch";
  let x = Mat.create t.n (Mat.cols b) in
  for j = 0 to Mat.cols b - 1 do
    let column = Mat.col b j in
    solve_inplace t column;
    for i = 0 to t.n - 1 do
      Mat.set x i j column.(i)
    done
  done;
  x

let det t =
  let d = ref t.sign in
  for i = 0 to t.n - 1 do
    d := !d *. Mat.get t.lu i i
  done;
  !d

let solve_dense m b = solve (factorize m) b

let inverse m =
  let t = factorize m in
  solve_mat t (Mat.identity t.n)
