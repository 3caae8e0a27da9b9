(* Row-major storage indexed directly: under -opaque a cross-module
   Mat.get/Mat.set boxes its float (docs/solver.md §8).  The bit pins in
   test/test_numeric.ml hold the operation order. *)

type t = {
  n : int;
  lu : float array; (* packed L (unit diagonal) and U, row-major n×n *)
  perm : int array; (* row permutation: row i of PA is row perm.(i) of A *)
  sign : float;
}

exception Singular of int

let factorize m =
  let n = Mat.rows m in
  if Mat.cols m <> n then invalid_arg "Lu.factorize: matrix not square";
  let scale = Mat.max_abs m in
  let tol = 1e-13 *. Float.max scale 1e-300 in
  let a = Array.copy m.Mat.a in
  (* a loop, not Array.init's closure call per entry *)
  let perm = Array.make n 0 in
  for i = 1 to n - 1 do
    perm.(i) <- i
  done;
  let sign = ref 1.0 in
  for k = 0 to n - 1 do
    (* partial pivoting: find the largest entry in column k at/below row k *)
    let piv = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs a.((i * n) + k) > Float.abs a.((!piv * n) + k) then
        piv := i
    done;
    if !piv <> k then begin
      for j = 0 to n - 1 do
        let p = (k * n) + j and q = (!piv * n) + j in
        let t = a.(p) in
        a.(p) <- a.(q);
        a.(q) <- t
      done;
      let t = perm.(k) in
      perm.(k) <- perm.(!piv);
      perm.(!piv) <- t;
      sign := -. !sign
    end;
    let pivot = a.((k * n) + k) in
    if Float.abs pivot < tol then raise (Singular k);
    (* indices below stay in [0, n) by construction, so the elimination
       inner loops can skip bounds checks *)
    for i = k + 1 to n - 1 do
      let ik = (i * n) + k in
      let f = Array.unsafe_get a ik /. pivot in
      Array.unsafe_set a ik f;
      if f <> 0.0 then
        for j = k + 1 to n - 1 do
          let ij = (i * n) + j in
          Array.unsafe_set a ij
            (Array.unsafe_get a ij
             -. (f *. Array.unsafe_get a ((k * n) + j)))
        done
    done
  done;
  { n; lu = a; perm; sign = !sign }

let dim t = t.n

let solve_into t b x =
  if Array.length b <> t.n || Array.length x <> t.n then
    invalid_arg "Lu.solve_into: dimension mismatch";
  if x == b then invalid_arg "Lu.solve_into: output aliases input";
  let n = t.n and lu = t.lu in
  for i = 0 to n - 1 do
    x.(i) <- b.(t.perm.(i))
  done;
  (* forward substitution with unit-diagonal L *)
  for i = 1 to n - 1 do
    let row = i * n in
    let s = ref (Array.unsafe_get x i) in
    for j = 0 to i - 1 do
      s := !s -. (Array.unsafe_get lu (row + j) *. Array.unsafe_get x j)
    done;
    Array.unsafe_set x i !s
  done;
  (* back substitution with U *)
  for i = n - 1 downto 0 do
    let row = i * n in
    let s = ref (Array.unsafe_get x i) in
    for j = i + 1 to n - 1 do
      s := !s -. (Array.unsafe_get lu (row + j) *. Array.unsafe_get x j)
    done;
    Array.unsafe_set x i (!s /. Array.unsafe_get lu (row + i))
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
  let n = t.n and lu = t.lu in
  if scratch != b then Array.blit b 0 scratch 0 n;
  let y = scratch in
  for i = 0 to n - 1 do
    let s = ref (Array.unsafe_get y i) in
    for j = 0 to i - 1 do
      s := !s -. (Array.unsafe_get lu ((j * n) + i) *. Array.unsafe_get y j)
    done;
    Array.unsafe_set y i (!s /. Array.unsafe_get lu ((i * n) + i))
  done;
  for i = n - 1 downto 0 do
    let s = ref (Array.unsafe_get y i) in
    for j = i + 1 to n - 1 do
      s := !s -. (Array.unsafe_get lu ((j * n) + i) *. Array.unsafe_get y j)
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
    d := !d *. t.lu.((i * t.n) + i)
  done;
  !d

let solve_dense m b = solve (factorize m) b

let inverse m =
  let t = factorize m in
  solve_mat t (Mat.identity t.n)
