(* Gilbert–Peierls left-looking sparse LU (CSparse cs_lu style) with
   threshold partial pivoting, split into a reusable [plan] (column
   order, pivot order, L/U pattern, csr→column scatter map) and a cheap
   numeric replay.  See docs/solver.md for the derivation. *)

type plan = {
  n : int;
  q : int array; (* column order: permuted column j is original q.(j) *)
  pinv : int array; (* original row -> pivot position *)
  prow : int array; (* pivot position -> original row *)
  up : int array; (* n+1 column pointers into ui/ux *)
  ui : int array; (* U entries: pivot positions k < j, elimination order *)
  lp : int array; (* n+1 column pointers into li/lx *)
  li : int array; (* L entries: original row indices *)
  cp : int array; (* n+1 pointers into cri/cpos, per permuted column *)
  cri : int array; (* original row of each entry of column q.(j) *)
  cpos : int array; (* position of that entry in the Csr value array *)
}

type t = {
  plan : plan;
  ux : float array;
  lx : float array;
  dx : float array; (* pivot values *)
}

exception Singular of int

let plan_dim p = p.n
let dim t = t.plan.n
let nnz_lu t = Array.length t.ux + Array.length t.lx + Array.length t.dx

let default_tol (csr : Csr.t) =
  let scale =
    Array.fold_left (fun a x -> Float.max a (Float.abs x)) 0.0 csr.Csr.v
  in
  1e-13 *. Float.max scale 1e-300

(* per permuted column: original rows and csr.v positions of A(:, q.(j)) *)
let build_colmap n (q : int array) (csr : Csr.t) =
  let qinv = Array.make n 0 in
  Array.iteri (fun k c -> qinv.(c) <- k) q;
  let cp = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    for p = csr.Csr.rp.(i) to csr.Csr.rp.(i + 1) - 1 do
      let jp = qinv.(csr.Csr.ci.(p)) in
      cp.(jp + 1) <- cp.(jp + 1) + 1
    done
  done;
  for j = 1 to n do
    cp.(j) <- cp.(j) + cp.(j - 1)
  done;
  let next = Array.copy cp in
  let nnz = Csr.nnz csr in
  let cri = Array.make (Stdlib.max nnz 1) 0 in
  let cpos = Array.make (Stdlib.max nnz 1) 0 in
  for i = 0 to n - 1 do
    for p = csr.Csr.rp.(i) to csr.Csr.rp.(i + 1) - 1 do
      let jp = qinv.(csr.Csr.ci.(p)) in
      cri.(next.(jp)) <- i;
      cpos.(next.(jp)) <- p;
      next.(jp) <- next.(jp) + 1
    done
  done;
  (cp, cri, cpos)

let plan ?ordering ?pivot_tol (csr : Csr.t) =
  let n = Csr.rows csr in
  if Csr.cols csr <> n then invalid_arg "Splu.plan: matrix not square";
  let sym = Symbolic.analyze ?ordering csr in
  let q = Array.copy sym.Symbolic.q in
  let cp, cri, cpos = build_colmap n q csr in
  let tol =
    match pivot_tol with Some t -> t | None -> default_tol csr
  in
  let pinv = Array.make n (-1) in
  let prow = Array.make n 0 in
  let lp = Array.make (n + 1) 0 in
  let up = Array.make (n + 1) 0 in
  (* growable L/U pattern storage; lx holds the plan-time numeric L
     needed to keep eliminating (discarded when the plan is done) *)
  let cap0 = Stdlib.max (4 * n) 16 in
  let li = ref (Array.make cap0 0) in
  let lx = ref (Array.make cap0 0.0) in
  let ln = ref 0 in
  let ui = ref (Array.make cap0 0) in
  let un = ref 0 in
  let push_l r v =
    if !ln = Array.length !li then begin
      let cap' = 2 * Array.length !li in
      let li' = Array.make cap' 0 and lx' = Array.make cap' 0.0 in
      Array.blit !li 0 li' 0 !ln;
      Array.blit !lx 0 lx' 0 !ln;
      li := li';
      lx := lx'
    end;
    !li.(!ln) <- r;
    !lx.(!ln) <- v;
    incr ln
  in
  let push_u k =
    if !un = Array.length !ui then begin
      let cap' = 2 * Array.length !ui in
      let ui' = Array.make cap' 0 in
      Array.blit !ui 0 ui' 0 !un;
      ui := ui'
    end;
    !ui.(!un) <- k;
    incr un
  in
  let x = Array.make (Stdlib.max n 1) 0.0 in
  let mark = Array.make (Stdlib.max n 1) (-1) in
  let dstack = Array.make (Stdlib.max n 1) 0 in
  let cstack = Array.make (Stdlib.max n 1) 0 in
  let topo = Array.make (Stdlib.max n 1) 0 in
  let reach = Array.make (Stdlib.max n 1) 0 in
  for j = 0 to n - 1 do
    lp.(j) <- !ln;
    up.(j) <- !un;
    let c = q.(j) in
    (* 1. pattern: DFS reach of A(:,c) through finished L columns.
       Children of a pivoted row (pivot position k) are the rows of
       L(:,k); unpivoted rows are leaves.  Postorder of the pivoted
       nodes, reversed, is a valid elimination order. *)
    let nreach = ref 0 and ntopo = ref 0 in
    for p = cp.(j) to cp.(j + 1) - 1 do
      let i0 = cri.(p) in
      if mark.(i0) <> j then begin
        mark.(i0) <- j;
        dstack.(0) <- i0;
        cstack.(0) <- (if pinv.(i0) >= 0 then lp.(pinv.(i0)) else 0);
        let sp = ref 1 in
        while !sp > 0 do
          let u = dstack.(!sp - 1) in
          let k = pinv.(u) in
          if k < 0 then begin
            decr sp;
            reach.(!nreach) <- u;
            incr nreach
          end
          else begin
            let cend = lp.(k + 1) in
            let cptr = ref cstack.(!sp - 1) in
            let pushed = ref false in
            while (not !pushed) && !cptr < cend do
              let child = !li.(!cptr) in
              incr cptr;
              if mark.(child) <> j then begin
                mark.(child) <- j;
                cstack.(!sp - 1) <- !cptr;
                dstack.(!sp) <- child;
                cstack.(!sp) <-
                  (if pinv.(child) >= 0 then lp.(pinv.(child)) else 0);
                incr sp;
                pushed := true
              end
            done;
            if not !pushed then begin
              decr sp;
              topo.(!ntopo) <- k;
              incr ntopo;
              reach.(!nreach) <- u;
              incr nreach
            end
          end
        done
      end
    done;
    (* 2. scatter values (x is all-zero between columns) *)
    for p = cp.(j) to cp.(j + 1) - 1 do
      x.(cri.(p)) <- csr.Csr.v.(cpos.(p))
    done;
    (* 3. numeric elimination in topological (reverse-postorder) order *)
    for ti = !ntopo - 1 downto 0 do
      let k = topo.(ti) in
      push_u k;
      let xk = x.(prow.(k)) in
      if xk <> 0.0 then
        for p = lp.(k) to lp.(k + 1) - 1 do
          let r = !li.(p) in
          x.(r) <- x.(r) -. (!lx.(p) *. xk)
        done
    done;
    (* 4. threshold partial pivoting with diagonal preference *)
    let amax = ref 0.0 in
    let arg = ref (-1) in
    for ri = 0 to !nreach - 1 do
      let r = reach.(ri) in
      if pinv.(r) < 0 then begin
        let a = Float.abs x.(r) in
        if a > !amax then begin
          amax := a;
          arg := r
        end
      end
    done;
    if !arg < 0 || !amax < tol then raise (Singular c);
    let pr =
      if
        c < n && mark.(c) = j && pinv.(c) < 0
        && Float.abs x.(c) >= Float.max (0.1 *. !amax) tol
      then c
      else !arg
    in
    pinv.(pr) <- j;
    prow.(j) <- pr;
    let pv = x.(pr) in
    (* 5. record L(:,j) — every reached unpivoted row, zeros included,
       so the pattern is stable under value changes *)
    for ri = 0 to !nreach - 1 do
      let r = reach.(ri) in
      if pinv.(r) < 0 then push_l r (x.(r) /. pv)
    done;
    (* 6. clear x over the reach *)
    for ri = 0 to !nreach - 1 do
      x.(reach.(ri)) <- 0.0
    done
  done;
  lp.(n) <- !ln;
  up.(n) <- !un;
  {
    n;
    q;
    pinv;
    prow;
    up;
    ui = Array.sub !ui 0 !un;
    lp;
    li = Array.sub !li 0 !ln;
    cp;
    cri;
    cpos;
  }

let refactorize ?pivot_tol t (csr : Csr.t) =
  let p = t.plan in
  if Csr.rows csr <> p.n || Csr.cols csr <> p.n then
    invalid_arg "Splu.refactorize: dimension mismatch";
  if Csr.nnz csr <> Array.length p.cri && p.n > 0 then
    invalid_arg "Splu.refactorize: pattern mismatch";
  let tol =
    match pivot_tol with Some tl -> tl | None -> default_tol csr
  in
  let x = Array.make (Stdlib.max p.n 1) 0.0 in
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

let factorize ?pivot_tol plan csr =
  let t =
    {
      plan;
      ux = Array.make (Stdlib.max (Array.length plan.ui) 1) 0.0;
      lx = Array.make (Stdlib.max (Array.length plan.li) 1) 0.0;
      dx = Array.make (Stdlib.max plan.n 1) 0.0;
    }
  in
  refactorize ?pivot_tol t csr;
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
