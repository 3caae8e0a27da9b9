(* Real sparse LU replay and solves over a Csplu plan.  The planner is
   Csplu's, fed the real values with a +0 imaginary part; the float
   kernels below stay real so they run on unboxed floats (docs/solver.md
   §2 and §8). *)

type plan = Csplu.plan

type t = {
  plan : plan;
  ux : float array;
  lx : float array;
  dx : float array; (* pivot values *)
}

exception Singular = Csplu.Singular

let dim t = t.plan.n
let nnz_lu t = Array.length t.ux + Array.length t.lx + Array.length t.dx

(* Vec.norm_inf's scan, copied rather than called: its float result
   would be boxed, and a replay allocates nothing.  [Float.max acc a]
   for an [abs] result [a], compared inline: C ([caml_signbit]) runs
   only for a NaN [a], exact as in Vec.norm_inf *)
let[@inline] max_nonneg acc a =
  if a > acc then a else if a <> a then Float.max acc a else acc

(* a NaN value makes the tolerance NaN, which turns the singular test
   off *)
let[@inline] default_tol (csr : Csr.t) =
  let v = csr.Csr.v in
  let scale = ref 0.0 in
  for p = 0 to Array.length v - 1 do
    scale := max_nonneg !scale (Float.abs v.(p))
  done;
  1e-13 *. Float.max !scale 1e-300

let plan (csr : Csr.t) = Csplu.plan csr (Cvec.of_real csr.Csr.v)

let refactorize t ~scratch (csr : Csr.t) =
  let p = t.plan in
  if Csr.rows csr <> p.n || Csr.cols csr <> p.n then
    invalid_arg "Splu.refactorize: dimension mismatch";
  if Csr.nnz csr <> Array.length p.cri && p.n > 0 then
    invalid_arg "Splu.refactorize: pattern mismatch";
  if Array.length scratch < p.n then
    invalid_arg "Splu.refactorize: scratch too short";
  let tol = default_tol csr in
  (* zeroed here, not trusted: a Singular raised mid-column leaves it
     dirty *)
  let x = scratch in
  Array.fill x 0 (Array.length x) 0.0;
  for j = 0 to p.n - 1 do
    for pp = p.cp.(j) to p.cp.(j + 1) - 1 do
      x.(p.cri.(pp)) <- csr.Csr.v.(p.cpos.(pp))
    done;
    for pu = p.up.(j) to p.up.(j + 1) - 1 do
      let k = Array.unsafe_get p.ui pu in
      let xk = Array.unsafe_get x (Array.unsafe_get p.prow k) in
      Array.unsafe_set t.ux pu xk;
      if xk <> 0.0 then
        for pl = p.lp.(k) to p.lp.(k + 1) - 1 do
          let r = Array.unsafe_get p.li pl in
          Array.unsafe_set x r
            (Array.unsafe_get x r -. (Array.unsafe_get t.lx pl *. xk))
        done
    done;
    let pr = p.prow.(j) in
    let pv = x.(pr) in
    if Float.abs pv < tol then raise (Singular p.q.(j));
    t.dx.(j) <- pv;
    x.(pr) <- 0.0;
    for pl = p.lp.(j) to p.lp.(j + 1) - 1 do
      let r = p.li.(pl) in
      t.lx.(pl) <- x.(r) /. pv;
      x.(r) <- 0.0
    done;
    for pu = p.up.(j) to p.up.(j + 1) - 1 do
      x.(p.prow.(p.ui.(pu))) <- 0.0
    done
  done

let factorize ?scratch (plan : plan) csr =
  let t =
    {
      plan;
      ux = Array.make (Stdlib.max (Array.length plan.ui) 1) 0.0;
      lx = Array.make (Stdlib.max (Array.length plan.li) 1) 0.0;
      dx = Array.make (Stdlib.max plan.n 1) 0.0;
    }
  in
  let scratch =
    match scratch with Some s -> s | None -> Array.make plan.n 0.0
  in
  refactorize t ~scratch csr;
  t

(* A·Q = L'·U' with L' unit-diagonal at the pivot positions, so
   A x = b  ⇔  L' z = b (forward, pivot coordinates), U' w = z
   (backward), x.(q.(j)) = w.(j).  [b] is read only by the first loop,
   so [x] may alias it. *)
let solve_unchecked t z b x =
  let p = t.plan in
  let n = p.n in
  for k = 0 to n - 1 do
    z.(k) <- b.(p.prow.(k))
  done;
  for k = 0 to n - 1 do
    let zk = Array.unsafe_get z k in
    if zk <> 0.0 then
      for pl = p.lp.(k) to p.lp.(k + 1) - 1 do
        let r = Array.unsafe_get p.li pl in
        let pos = Array.unsafe_get p.pinv r in
        Array.unsafe_set z pos
          (Array.unsafe_get z pos -. (Array.unsafe_get t.lx pl *. zk))
      done
  done;
  for j = n - 1 downto 0 do
    let wj = Array.unsafe_get z j /. Array.unsafe_get t.dx j in
    x.(p.q.(j)) <- wj;
    if wj <> 0.0 then
      for pu = p.up.(j) to p.up.(j + 1) - 1 do
        let k = Array.unsafe_get p.ui pu in
        Array.unsafe_set z k
          (Array.unsafe_get z k -. (Array.unsafe_get t.ux pu *. wj))
      done
  done

let solve_into t ~scratch b x =
  let n = t.plan.n in
  if Array.length b <> n || Array.length x <> n || Array.length scratch <> n
  then invalid_arg "Splu.solve_into: dimension mismatch";
  if x == b || x == scratch || scratch == b then
    invalid_arg "Splu.solve_into: arrays must be distinct";
  solve_unchecked t scratch b x

let solve t b =
  let n = t.plan.n in
  let x = Array.make n 0.0 in
  solve_into t ~scratch:(Array.make n 0.0) b x;
  x

let solve_inplace t ~scratch b =
  let n = t.plan.n in
  if Array.length b <> n || Array.length scratch <> n then
    invalid_arg "Splu.solve_inplace: dimension mismatch";
  if scratch == b then invalid_arg "Splu.solve_inplace: scratch aliases b";
  solve_unchecked t scratch b b

(* Aᵀ x = b  ⇔  U'ᵀ u = Qᵀ b (forward over U columns ascending),
   L'ᵀ w = u (backward over L columns descending), x.(prow.(k)) = w.(k). *)
let solve_transpose_into t ~scratch b x =
  let p = t.plan in
  let n = p.n in
  if Array.length b <> n || Array.length x <> n || Array.length scratch <> n
  then invalid_arg "Splu.solve_transpose_into: dimension mismatch";
  if x == b || x == scratch || scratch == b then
    invalid_arg "Splu.solve_transpose_into: arrays must be distinct";
  let w = scratch in
  for j = 0 to n - 1 do
    let s = ref b.(p.q.(j)) in
    for pu = p.up.(j) to p.up.(j + 1) - 1 do
      s :=
        !s
        -. (Array.unsafe_get t.ux pu
            *. Array.unsafe_get w (Array.unsafe_get p.ui pu))
    done;
    w.(j) <- !s /. t.dx.(j)
  done;
  for k = n - 1 downto 0 do
    let s = ref w.(k) in
    for pl = p.lp.(k) to p.lp.(k + 1) - 1 do
      s :=
        !s
        -. (Array.unsafe_get t.lx pl
            *. Array.unsafe_get w
                 (Array.unsafe_get p.pinv (Array.unsafe_get p.li pl)))
    done;
    w.(k) <- !s;
    x.(p.prow.(k)) <- !s
  done

let solve_transpose t b =
  let n = t.plan.n in
  let x = Array.make n 0.0 in
  solve_transpose_into t ~scratch:(Array.make n 0.0) b x;
  x
