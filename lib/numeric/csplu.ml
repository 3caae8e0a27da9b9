(* Complex Gilbert–Peierls sparse LU with plan/replay, mirroring Splu.
   Values, L/U factors and solve vectors all live in split re/im float
   arrays (Cvec), so every loop runs on unboxed floats. *)

type plan = {
  n : int;
  q : int array;
  pinv : int array;
  prow : int array;
  up : int array;
  ui : int array;
  lp : int array;
  li : int array;
  cp : int array;
  cri : int array;
  cpos : int array;
}

type t = {
  plan : plan;
  uxr : float array;
  uxi : float array;
  lxr : float array;
  lxi : float array;
  dxr : float array;
  dxi : float array;
}

exception Singular of int

let plan_dim p = p.n
let dim t = t.plan.n

let default_tol (vals : Cvec.t) =
  let scale = ref 0.0 in
  for p = 0 to Cvec.dim vals - 1 do
    scale := Float.max !scale (Float.hypot vals.re.(p) vals.im.(p))
  done;
  1e-13 *. Float.max !scale 1e-300

(* q <- x / y with Complex.div's branches and operation order; inlined,
   so the operands stay unboxed *)
let[@inline] div_into qre qim i xr xi yr yi =
  if Float.abs yr >= Float.abs yi then begin
    let r = yi /. yr in
    let d = yr +. (r *. yi) in
    Array.unsafe_set qre i ((xr +. (r *. xi)) /. d);
    Array.unsafe_set qim i ((xi -. (r *. xr)) /. d)
  end
  else begin
    let r = yr /. yi in
    let d = yi +. (r *. yr) in
    Array.unsafe_set qre i (((r *. xr) +. xi) /. d);
    Array.unsafe_set qim i (((r *. xi) -. xr) /. d)
  end

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

let plan ?ordering ?pivot_tol (csr : Csr.t) (vals : Cvec.t) =
  let n = Csr.rows csr in
  if Csr.cols csr <> n then invalid_arg "Csplu.plan: matrix not square";
  if Cvec.dim vals <> Csr.nnz csr then
    invalid_arg "Csplu.plan: values/pattern length mismatch";
  let sym = Symbolic.analyze ?ordering csr in
  let q = Array.copy sym.Symbolic.q in
  let cp, cri, cpos = build_colmap n q csr in
  let tol =
    match pivot_tol with Some t -> t | None -> default_tol vals
  in
  let pinv = Array.make n (-1) in
  let prow = Array.make n 0 in
  let lp = Array.make (n + 1) 0 in
  let up = Array.make (n + 1) 0 in
  let cap0 = Stdlib.max (4 * n) 16 in
  let li = ref (Array.make cap0 0) in
  let lxr = ref (Array.make cap0 0.0) in
  let lxi = ref (Array.make cap0 0.0) in
  let ln = ref 0 in
  let ui = ref (Array.make cap0 0) in
  let un = ref 0 in
  let grow_l () =
    if !ln = Array.length !li then begin
      let cap' = 2 * Array.length !li in
      let li' = Array.make cap' 0 in
      let lxr' = Array.make cap' 0.0 and lxi' = Array.make cap' 0.0 in
      Array.blit !li 0 li' 0 !ln;
      Array.blit !lxr 0 lxr' 0 !ln;
      Array.blit !lxi 0 lxi' 0 !ln;
      li := li';
      lxr := lxr';
      lxi := lxi'
    end
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
  let xr = Array.make (Stdlib.max n 1) 0.0 in
  let xi = Array.make (Stdlib.max n 1) 0.0 in
  let mark = Array.make (Stdlib.max n 1) (-1) in
  let dstack = Array.make (Stdlib.max n 1) 0 in
  let cstack = Array.make (Stdlib.max n 1) 0 in
  let topo = Array.make (Stdlib.max n 1) 0 in
  let reach = Array.make (Stdlib.max n 1) 0 in
  for j = 0 to n - 1 do
    lp.(j) <- !ln;
    up.(j) <- !un;
    let c = q.(j) in
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
    for p = cp.(j) to cp.(j + 1) - 1 do
      xr.(cri.(p)) <- vals.re.(cpos.(p));
      xi.(cri.(p)) <- vals.im.(cpos.(p))
    done;
    for ti = !ntopo - 1 downto 0 do
      let k = topo.(ti) in
      push_u k;
      let r0 = prow.(k) in
      let kr = xr.(r0) and ki = xi.(r0) in
      if kr <> 0.0 || ki <> 0.0 then
        for p = lp.(k) to lp.(k + 1) - 1 do
          let r = !li.(p) in
          let lr = !lxr.(p) and l_i = !lxi.(p) in
          xr.(r) <- xr.(r) -. ((lr *. kr) -. (l_i *. ki));
          xi.(r) <- xi.(r) -. ((lr *. ki) +. (l_i *. kr))
        done
    done;
    let amax = ref 0.0 in
    let arg = ref (-1) in
    for ri = 0 to !nreach - 1 do
      let r = reach.(ri) in
      if pinv.(r) < 0 then begin
        let a = Float.hypot xr.(r) xi.(r) in
        if a > !amax then begin
          amax := a;
          arg := r
        end
      end
    done;
    if !arg < 0 || !amax < tol then raise (Singular c);
    let pr =
      if
        mark.(c) = j && pinv.(c) < 0
        && Float.hypot xr.(c) xi.(c) >= Float.max (0.1 *. !amax) tol
      then c
      else !arg
    in
    pinv.(pr) <- j;
    prow.(j) <- pr;
    let pvr = xr.(pr) and pvi = xi.(pr) in
    for ri = 0 to !nreach - 1 do
      let r = reach.(ri) in
      if pinv.(r) < 0 then begin
        grow_l ();
        !li.(!ln) <- r;
        div_into !lxr !lxi !ln xr.(r) xi.(r) pvr pvi;
        incr ln
      end
    done;
    for ri = 0 to !nreach - 1 do
      let r = reach.(ri) in
      xr.(r) <- 0.0;
      xi.(r) <- 0.0
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

let refactorize ?pivot_tol t (csr : Csr.t) (vals : Cvec.t) =
  let p = t.plan in
  if Csr.rows csr <> p.n || Csr.cols csr <> p.n then
    invalid_arg "Csplu.refactorize: dimension mismatch";
  if Cvec.dim vals <> Csr.nnz csr then
    invalid_arg "Csplu.refactorize: values/pattern length mismatch";
  let tol =
    match pivot_tol with Some tl -> tl | None -> default_tol vals
  in
  let xr = Array.make (Stdlib.max p.n 1) 0.0 in
  let xi = Array.make (Stdlib.max p.n 1) 0.0 in
  for j = 0 to p.n - 1 do
    for pp = p.cp.(j) to p.cp.(j + 1) - 1 do
      xr.(p.cri.(pp)) <- vals.re.(p.cpos.(pp));
      xi.(p.cri.(pp)) <- vals.im.(p.cpos.(pp))
    done;
    for pu = p.up.(j) to p.up.(j + 1) - 1 do
      let k = Array.unsafe_get p.ui pu in
      let r0 = Array.unsafe_get p.prow k in
      let kr = Array.unsafe_get xr r0 and ki = Array.unsafe_get xi r0 in
      Array.unsafe_set t.uxr pu kr;
      Array.unsafe_set t.uxi pu ki;
      if kr <> 0.0 || ki <> 0.0 then
        for pl = p.lp.(k) to p.lp.(k + 1) - 1 do
          let r = Array.unsafe_get p.li pl in
          let lr = Array.unsafe_get t.lxr pl
          and l_i = Array.unsafe_get t.lxi pl in
          Array.unsafe_set xr r
            (Array.unsafe_get xr r -. ((lr *. kr) -. (l_i *. ki)));
          Array.unsafe_set xi r
            (Array.unsafe_get xi r -. ((lr *. ki) +. (l_i *. kr)))
        done
    done;
    let pr = p.prow.(j) in
    let pvr = xr.(pr) and pvi = xi.(pr) in
    if Float.hypot pvr pvi < tol then raise (Singular p.q.(j));
    t.dxr.(j) <- pvr;
    t.dxi.(j) <- pvi;
    xr.(pr) <- 0.0;
    xi.(pr) <- 0.0;
    for pl = p.lp.(j) to p.lp.(j + 1) - 1 do
      let r = p.li.(pl) in
      div_into t.lxr t.lxi pl xr.(r) xi.(r) pvr pvi;
      xr.(r) <- 0.0;
      xi.(r) <- 0.0
    done;
    for pu = p.up.(j) to p.up.(j + 1) - 1 do
      let r = p.prow.(p.ui.(pu)) in
      xr.(r) <- 0.0;
      xi.(r) <- 0.0
    done
  done

let factorize ?pivot_tol plan csr vals =
  let nl = Stdlib.max (Array.length plan.li) 1 in
  let nu = Stdlib.max (Array.length plan.ui) 1 in
  let nd = Stdlib.max plan.n 1 in
  let t =
    {
      plan;
      uxr = Array.make nu 0.0;
      uxi = Array.make nu 0.0;
      lxr = Array.make nl 0.0;
      lxi = Array.make nl 0.0;
      dxr = Array.make nd 0.0;
      dxi = Array.make nd 0.0;
    }
  in
  refactorize ?pivot_tol t csr vals;
  t

let check_solve name n (scratch : Cvec.t) (b : Cvec.t) (x : Cvec.t) =
  if Cvec.dim b <> n || Cvec.dim x <> n || Cvec.dim scratch <> n then
    invalid_arg ("Csplu." ^ name ^ ": dimension mismatch");
  if x.re == b.re || x.re == scratch.re || scratch.re == b.re then
    invalid_arg ("Csplu." ^ name ^ ": arrays must be distinct")

let solve_into t ~(scratch : Cvec.t) (b : Cvec.t) (x : Cvec.t) =
  let p = t.plan in
  let n = p.n in
  check_solve "solve_into" n scratch b x;
  let zre = scratch.re and zim = scratch.im in
  for k = 0 to n - 1 do
    zre.(k) <- b.re.(p.prow.(k));
    zim.(k) <- b.im.(p.prow.(k))
  done;
  for k = 0 to n - 1 do
    let kr = Array.unsafe_get zre k and ki = Array.unsafe_get zim k in
    if kr <> 0.0 || ki <> 0.0 then
      for pl = p.lp.(k) to p.lp.(k + 1) - 1 do
        let pos = Array.unsafe_get p.pinv (Array.unsafe_get p.li pl) in
        let lr = Array.unsafe_get t.lxr pl
        and l_i = Array.unsafe_get t.lxi pl in
        Array.unsafe_set zre pos
          (Array.unsafe_get zre pos -. ((lr *. kr) -. (l_i *. ki)));
        Array.unsafe_set zim pos
          (Array.unsafe_get zim pos -. ((lr *. ki) +. (l_i *. kr)))
      done
  done;
  for j = n - 1 downto 0 do
    (* w_j = z_j / d_j, stored straight into x.(q.(j)) *)
    let qj = p.q.(j) in
    div_into x.re x.im qj (Array.unsafe_get zre j) (Array.unsafe_get zim j)
      t.dxr.(j) t.dxi.(j);
    let wr = x.re.(qj) and wi = x.im.(qj) in
    if wr <> 0.0 || wi <> 0.0 then
      for pu = p.up.(j) to p.up.(j + 1) - 1 do
        let k = Array.unsafe_get p.ui pu in
        let ur = Array.unsafe_get t.uxr pu
        and u_i = Array.unsafe_get t.uxi pu in
        Array.unsafe_set zre k
          (Array.unsafe_get zre k -. ((ur *. wr) -. (u_i *. wi)));
        Array.unsafe_set zim k
          (Array.unsafe_get zim k -. ((ur *. wi) +. (u_i *. wr)))
      done
  done

let solve t b =
  let n = t.plan.n in
  let x = Cvec.create n in
  solve_into t ~scratch:(Cvec.create n) b x;
  x

let solve_transpose_into t ~(scratch : Cvec.t) (b : Cvec.t) (x : Cvec.t) =
  let p = t.plan in
  let n = p.n in
  check_solve "solve_transpose_into" n scratch b x;
  let wre = scratch.re and wim = scratch.im in
  for j = 0 to n - 1 do
    let sr = ref b.re.(p.q.(j)) and si = ref b.im.(p.q.(j)) in
    for pu = p.up.(j) to p.up.(j + 1) - 1 do
      let k = Array.unsafe_get p.ui pu in
      let wr = Array.unsafe_get wre k and wi = Array.unsafe_get wim k in
      let ur = Array.unsafe_get t.uxr pu
      and u_i = Array.unsafe_get t.uxi pu in
      sr := !sr -. ((ur *. wr) -. (u_i *. wi));
      si := !si -. ((ur *. wi) +. (u_i *. wr))
    done;
    div_into wre wim j !sr !si t.dxr.(j) t.dxi.(j)
  done;
  for k = n - 1 downto 0 do
    let sr = ref wre.(k) and si = ref wim.(k) in
    for pl = p.lp.(k) to p.lp.(k + 1) - 1 do
      let pos = Array.unsafe_get p.pinv (Array.unsafe_get p.li pl) in
      let wr = Array.unsafe_get wre pos and wi = Array.unsafe_get wim pos in
      let lr = Array.unsafe_get t.lxr pl
      and l_i = Array.unsafe_get t.lxi pl in
      sr := !sr -. ((lr *. wr) -. (l_i *. wi));
      si := !si -. ((lr *. wi) +. (l_i *. wr))
    done;
    wre.(k) <- !sr;
    wim.(k) <- !si;
    x.re.(p.prow.(k)) <- !sr;
    x.im.(p.prow.(k)) <- !si
  done

let solve_transpose t b =
  let n = t.plan.n in
  let x = Cvec.create n in
  solve_transpose_into t ~scratch:(Cvec.create n) b x;
  x
