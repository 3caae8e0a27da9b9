type t = {
  n : int;
  lu : Cmat.t;
  perm : int array;
}

exception Singular of int

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

(* [Float.hypot re im], calling C only when both parts are nonzero or
   one is a NaN: [hypot(x, ±0)] is [fabs(x)] bit for bit (C Annex F) *)
let[@inline] mag re im =
  if im = 0.0 && re = re then Float.abs re
  else if re = 0.0 && im = im then Float.abs im
  else Float.hypot re im

let factorize m =
  let n = Cmat.rows m in
  if Cmat.cols m <> n then invalid_arg "Clu.factorize: matrix not square";
  let scale = Cmat.max_abs m in
  let tol = 1e-13 *. Float.max scale 1e-300 in
  let lu = Cmat.copy m in
  let re = lu.Cmat.re and im = lu.Cmat.im in
  (* a loop, not Array.init's closure call per entry *)
  let perm = Array.make n 0 in
  for i = 1 to n - 1 do
    perm.(i) <- i
  done;
  for k = 0 to n - 1 do
    (* the first largest modulus in column k at/below row k; the
       leader's modulus is kept, not recomputed per row *)
    let piv = ref k in
    let best = ref (mag re.((k * n) + k) im.((k * n) + k)) in
    for i = k + 1 to n - 1 do
      let a = mag re.((i * n) + k) im.((i * n) + k) in
      if a > !best then begin
        piv := i;
        best := a
      end
    done;
    if !piv <> k then begin
      for j = 0 to n - 1 do
        let a = (k * n) + j and b = (!piv * n) + j in
        let tr = re.(a) and ti = im.(a) in
        re.(a) <- re.(b);
        im.(a) <- im.(b);
        re.(b) <- tr;
        im.(b) <- ti
      done;
      let t = perm.(k) in
      perm.(k) <- perm.(!piv);
      perm.(!piv) <- t
    end;
    let pr = re.((k * n) + k) and pi = im.((k * n) + k) in
    if mag pr pi < tol then raise (Singular k);
    (* indices below stay in [0, n) by construction, so the elimination
       inner loops skip bounds checks *)
    for i = k + 1 to n - 1 do
      let ik = (i * n) + k in
      div_into re im ik (Array.unsafe_get re ik) (Array.unsafe_get im ik) pr pi;
      let fr = Array.unsafe_get re ik and fi = Array.unsafe_get im ik in
      if fr <> 0.0 || fi <> 0.0 then
        for j = k + 1 to n - 1 do
          let a = (i * n) + j and b = (k * n) + j in
          let br = Array.unsafe_get re b and bi = Array.unsafe_get im b in
          Array.unsafe_set re a
            (Array.unsafe_get re a -. ((fr *. br) -. (fi *. bi)));
          Array.unsafe_set im a
            (Array.unsafe_get im a -. ((fr *. bi) +. (fi *. br)))
        done
    done
  done;
  { n; lu; perm }

let dim t = t.n

let solve_into t (b : Cvec.t) (x : Cvec.t) =
  if Cvec.dim b <> t.n || Cvec.dim x <> t.n then
    invalid_arg "Clu.solve_into: dimension mismatch";
  if x.re == b.re then invalid_arg "Clu.solve_into: output aliases input";
  let n = t.n in
  let lre = t.lu.Cmat.re and lim = t.lu.Cmat.im in
  let xre = x.re and xim = x.im in
  for i = 0 to n - 1 do
    xre.(i) <- b.re.(t.perm.(i));
    xim.(i) <- b.im.(t.perm.(i))
  done;
  for i = 1 to n - 1 do
    let sr = ref (Array.unsafe_get xre i) and si = ref (Array.unsafe_get xim i) in
    for j = 0 to i - 1 do
      let mr = Array.unsafe_get lre ((i * n) + j)
      and mi = Array.unsafe_get lim ((i * n) + j) in
      let xr = Array.unsafe_get xre j and xi = Array.unsafe_get xim j in
      sr := !sr -. ((mr *. xr) -. (mi *. xi));
      si := !si -. ((mr *. xi) +. (mi *. xr))
    done;
    Array.unsafe_set xre i !sr;
    Array.unsafe_set xim i !si
  done;
  for i = n - 1 downto 0 do
    let sr = ref (Array.unsafe_get xre i) and si = ref (Array.unsafe_get xim i) in
    for j = i + 1 to n - 1 do
      let mr = Array.unsafe_get lre ((i * n) + j)
      and mi = Array.unsafe_get lim ((i * n) + j) in
      let xr = Array.unsafe_get xre j and xi = Array.unsafe_get xim j in
      sr := !sr -. ((mr *. xr) -. (mi *. xi));
      si := !si -. ((mr *. xi) +. (mi *. xr))
    done;
    div_into xre xim i !sr !si
      (Array.unsafe_get lre ((i * n) + i))
      (Array.unsafe_get lim ((i * n) + i))
  done

let solve t b =
  let x = Cvec.create t.n in
  solve_into t b x;
  x

(* [scratch] holds the intermediate of the two triangular sweeps; it may
   alias [b] (the solve then runs in place) but never [x]. *)
let solve_transpose_into t ~(scratch : Cvec.t) (b : Cvec.t) (x : Cvec.t) =
  if Cvec.dim b <> t.n || Cvec.dim x <> t.n || Cvec.dim scratch <> t.n then
    invalid_arg "Clu.solve_transpose_into: dimension mismatch";
  if x.re == scratch.re || x.re == b.re then
    invalid_arg "Clu.solve_transpose_into: output aliases an input";
  let n = t.n in
  if scratch.re != b.re then Cvec.blit b scratch;
  let lre = t.lu.Cmat.re and lim = t.lu.Cmat.im in
  let yre = scratch.re and yim = scratch.im in
  for i = 0 to n - 1 do
    let sr = ref (Array.unsafe_get yre i) and si = ref (Array.unsafe_get yim i) in
    for j = 0 to i - 1 do
      let mr = Array.unsafe_get lre ((j * n) + i)
      and mi = Array.unsafe_get lim ((j * n) + i) in
      let yr = Array.unsafe_get yre j and yi = Array.unsafe_get yim j in
      sr := !sr -. ((mr *. yr) -. (mi *. yi));
      si := !si -. ((mr *. yi) +. (mi *. yr))
    done;
    div_into yre yim i !sr !si
      (Array.unsafe_get lre ((i * n) + i))
      (Array.unsafe_get lim ((i * n) + i))
  done;
  for i = n - 1 downto 0 do
    let sr = ref (Array.unsafe_get yre i) and si = ref (Array.unsafe_get yim i) in
    for j = i + 1 to n - 1 do
      let mr = Array.unsafe_get lre ((j * n) + i)
      and mi = Array.unsafe_get lim ((j * n) + i) in
      let yr = Array.unsafe_get yre j and yi = Array.unsafe_get yim j in
      sr := !sr -. ((mr *. yr) -. (mi *. yi));
      si := !si -. ((mr *. yi) +. (mi *. yr))
    done;
    Array.unsafe_set yre i !sr;
    Array.unsafe_set yim i !si
  done;
  for i = 0 to n - 1 do
    x.re.(t.perm.(i)) <- yre.(i);
    x.im.(t.perm.(i)) <- yim.(i)
  done

let solve_transpose t b =
  let x = Cvec.create t.n in
  solve_transpose_into t ~scratch:(Cvec.copy b) b x;
  x

let solve_dense m b = solve (factorize m) b
