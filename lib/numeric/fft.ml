let is_pow2 n = n > 0 && n land (n - 1) = 0

(* in-place iterative radix-2 Cooley-Tukey, decimation in time; the
   butterflies and twiddle products follow Complex.mul/add/sub *)
let fft_pow2 ~inverse (a : Cvec.t) =
  let re = a.re and im = a.im in
  let n = Array.length re in
  (* bit reversal permutation *)
  let j = ref 0 in
  for i = 0 to n - 2 do
    if i < !j then begin
      let tr = re.(i) and ti = im.(i) in
      re.(i) <- re.(!j);
      im.(i) <- im.(!j);
      re.(!j) <- tr;
      im.(!j) <- ti
    end;
    let m = ref (n lsr 1) in
    while !m >= 1 && !j land !m <> 0 do
      j := !j lxor !m;
      m := !m lsr 1
    done;
    j := !j lor !m
  done;
  let sign = if inverse then 1.0 else -1.0 in
  let len = ref 2 in
  while !len <= n do
    let ang = sign *. 2.0 *. Float.pi /. float_of_int !len in
    let wlr = cos ang and wli = sin ang in
    let half = !len / 2 in
    let i = ref 0 in
    while !i < n do
      let wr = ref 1.0 and wi = ref 0.0 in
      for k = 0 to half - 1 do
        let p = !i + k and q = !i + k + half in
        let ur = re.(p) and ui = im.(p) in
        let vr = (re.(q) *. !wr) -. (im.(q) *. !wi)
        and vi = (re.(q) *. !wi) +. (im.(q) *. !wr) in
        re.(p) <- ur +. vr;
        im.(p) <- ui +. vi;
        re.(q) <- ur -. vr;
        im.(q) <- ui -. vi;
        let wr' = (!wr *. wlr) -. (!wi *. wli) in
        wi := (!wr *. wli) +. (!wi *. wlr);
        wr := wr'
      done;
      i := !i + !len
    done;
    len := !len lsl 1
  done

let dft_direct ~inverse (x : Cvec.t) =
  let n = Cvec.dim x in
  let sign = if inverse then 1.0 else -1.0 in
  let y = Cvec.create n in
  for k = 0 to n - 1 do
    let sr = ref 0.0 and si = ref 0.0 in
    for j = 0 to n - 1 do
      let ang = sign *. 2.0 *. Float.pi *. float_of_int (k * j) /. float_of_int n in
      let c = cos ang and s = sin ang in
      sr := !sr +. ((x.re.(j) *. c) -. (x.im.(j) *. s));
      si := !si +. ((x.re.(j) *. s) +. (x.im.(j) *. c))
    done;
    y.re.(k) <- !sr;
    y.im.(k) <- !si
  done;
  y

let transform ~inverse x =
  if is_pow2 (Cvec.dim x) then begin
    let a = Cvec.copy x in
    fft_pow2 ~inverse a;
    a
  end
  else dft_direct ~inverse x

let dft x = transform ~inverse:false x

let idft x =
  let n = Cvec.dim x in
  let y = transform ~inverse:true x in
  let inv_n = 1.0 /. float_of_int n in
  for k = 0 to n - 1 do
    y.re.(k) <- inv_n *. y.re.(k);
    y.im.(k) <- inv_n *. y.im.(k)
  done;
  y

let dft_real v = dft (Cvec.of_real v)

let fourier_coefficient samples k =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Fft.fourier_coefficient: empty";
  let sr = ref 0.0 and si = ref 0.0 in
  for j = 0 to n - 1 do
    let ang = -2.0 *. Float.pi *. float_of_int (k * j) /. float_of_int n in
    sr := !sr +. (samples.(j) *. cos ang);
    si := !si +. (samples.(j) *. sin ang)
  done;
  let inv_n = 1.0 /. float_of_int n in
  Cx.mk (inv_n *. !sr) (inv_n *. !si)

let harmonic_amplitude samples k =
  let c = fourier_coefficient samples k in
  if k = 0 then Cx.abs c else 2.0 *. Cx.abs c
