(* Restarted complex GMRES(k) with modified Gram-Schmidt Arnoldi and an
   incremental Givens-rotation least-squares solve.

   Every length-n vector the solve touches lives in the caller-provided
   workspace: the k+1 Krylov basis vectors and the residual, correction
   and best-iterate scratch, all in split re/im storage (Cvec).  What a
   [solve] allocates beyond [make_ws] is the boxed Hessenberg, Givens
   and least-squares scalars — O(k) small records per Arnoldi step,
   independent of n — so the engines can run it inside per-lane
   workspaces without O(n) garbage. *)

type ws = {
  n : int;
  restart : int;
  v : Cvec.t array;        (* restart+1 Krylov basis vectors *)
  h : Cx.t array array;    (* h.(j) = Hessenberg column j, length restart+1 *)
  cs : float array;        (* Givens cosines (real by construction) *)
  sn : Cx.t array;         (* Givens sines *)
  g : Cx.t array;          (* rotated residual rhs, length restart+1 *)
  y : Cx.t array;          (* back-substitution solution *)
  r : Cvec.t;              (* residual / correction scratch *)
  z : Cvec.t;              (* preconditioner scratch *)
  xb : Cvec.t;             (* best iterate seen across cycles *)
}

(* the restart length every engine workspace uses unless a caller has a
   reason to deviate; reported by `varsim version` *)
let default_restart = 30

let make_ws ~n ~restart =
  if restart < 1 then invalid_arg "Gmres.make_ws: restart < 1";
  let k = Stdlib.min restart (Stdlib.max n 1) in
  {
    n;
    restart = k;
    v = Array.init (k + 1) (fun _ -> Cvec.create n);
    h = Array.init k (fun _ -> Array.make (k + 1) Cx.zero);
    cs = Array.make k 0.0;
    sn = Array.make k Cx.zero;
    g = Array.make (k + 1) Cx.zero;
    y = Array.make k Cx.zero;
    r = Cvec.create n;
    z = Cvec.create n;
    xb = Cvec.create n;
  }

let ws_dim ws = ws.n
let ws_restart ws = ws.restart

type stats = {
  converged : bool;
  iterations : int;
  restarts : int;
  residual : float;
}

(* Givens rotation zeroing b against a: returns (c, s) with c real and
   [c s; -conj s  c]·[a; b] = [a/|a|·rho; 0], rho = sqrt(|a|²+|b|²). *)
let givens a b =
  let aa = Cx.abs a and ab = Cx.abs b in
  if ab = 0.0 then (1.0, Cx.zero)
  else if aa = 0.0 then (0.0, Cx.one)
  else begin
    let rho = Float.hypot aa ab in
    let c = aa /. rho in
    (* s = (a/|a|)·conj(b)/rho *)
    let s = Cx.( *: ) (Cx.scale (1.0 /. aa) a) (Cx.scale (1.0 /. rho) (Cx.conj b)) in
    (c, s)
  end

let apply_givens c s hi hj =
  let t1 = Cx.( +: ) (Cx.scale c !hi) (Cx.( *: ) s !hj) in
  let t2 = Cx.( -: ) (Cx.scale c !hj) (Cx.( *: ) (Cx.conj s) !hi) in
  hi := t1;
  hj := t2

(* dst <- A·(M⁻¹ src) through the scratch [z] (right preconditioning) *)
let apply_op ~apply ~precond ws src dst =
  match precond with
  | None -> apply src dst
  | Some m ->
    Cvec.blit src ws.z;
    m ws.z;
    apply ws.z dst

(* x <- x + M⁻¹·(V_k · y), correction accumulated in ws.r *)
let add_correction ~precond ws ~cols x =
  Cvec.fill ws.r Cx.zero;
  for j = 0 to cols - 1 do
    Cvec.axpy ws.y.(j) ws.v.(j) ws.r
  done;
  (match precond with None -> () | Some m -> m ws.r);
  Cvec.add_inplace x ws.r

let solve ?(tol = 1e-12) ?(max_restarts = 8) ?precond ~apply ws ~b ~x =
  let n = ws.n in
  if Cvec.dim b <> n || Cvec.dim x <> n then
    invalid_arg "Gmres.solve: dimension mismatch";
  let bnorm = Cvec.norm2 b in
  if bnorm = 0.0 then begin
    Cvec.fill x Cx.zero;
    { converged = true; iterations = 0; restarts = 0; residual = 0.0 }
  end
  else begin
    let iterations = ref 0 in
    let cycles = ref 0 in
    let best = ref infinity in
    let finished rel =
      (* x currently holds the best iterate (callers of [record] keep
         the invariant); report and count *)
      let restarts = Stdlib.max 0 (!cycles - 1) in
      if Obs.enabled () then begin
        Obs.count "gmres.iterations" !iterations;
        Obs.count "gmres.restarts" restarts
      end;
      let ok = rel <= tol in
      if (not ok) && Obs.enabled () then Obs.count "gmres.stagnations" 1;
      { converged = ok; iterations = !iterations; restarts; residual = rel }
    in
    let record rel =
      if rel < !best then begin
        best := rel;
        Cvec.blit x ws.xb
      end
    in
    (* true residual of the current x into ws.v.(0); returns its norm *)
    let residual_norm () =
      apply_op ~apply ~precond:None ws x ws.r;
      (* note: x is already in unpreconditioned space; precond only
         wraps the Krylov directions, so the residual uses plain A *)
      let v0 = ws.v.(0) in
      for i = 0 to n - 1 do
        v0.re.(i) <- b.re.(i) -. ws.r.re.(i);
        v0.im.(i) <- b.im.(i) -. ws.r.im.(i)
      done;
      Cvec.norm2 ws.v.(0)
    in
    let rec cycle cycle_start_rel =
      let beta = residual_norm () in
      let rel0 = beta /. bnorm in
      record rel0;
      if rel0 <= tol then finished rel0
      else if
        (* stagnation: a whole restart cycle shaved off less than 10% *)
        !cycles > 0 && rel0 > 0.9 *. cycle_start_rel
      then begin
        Cvec.blit ws.xb x;
        finished !best
      end
      else if !cycles > max_restarts then begin
        Cvec.blit ws.xb x;
        finished !best
      end
      else begin
        Cvec.scale_inplace (Cx.re (1.0 /. beta)) ws.v.(0);
        Array.fill ws.g 0 (ws.restart + 1) Cx.zero;
        ws.g.(0) <- Cx.re beta;
        let j = ref 0 in
        let live = ref true in
        while !live && !j < ws.restart do
          let jj = !j in
          let w = ws.v.(jj + 1) in
          apply_op ~apply ~precond ws ws.v.(jj) w;
          incr iterations;
          let hcol = ws.h.(jj) in
          (* modified Gram-Schmidt *)
          for i = 0 to jj do
            let hij = Cvec.dot ws.v.(i) w in
            hcol.(i) <- hij;
            Cvec.axpy (Cx.neg hij) ws.v.(i) w
          done;
          let wnorm = Cvec.norm2 w in
          hcol.(jj + 1) <- Cx.re wnorm;
          (* apply the accumulated rotations to the new column *)
          let hi = ref Cx.zero and hj = ref Cx.zero in
          for i = 0 to jj - 1 do
            hi := hcol.(i);
            hj := hcol.(i + 1);
            apply_givens ws.cs.(i) ws.sn.(i) hi hj;
            hcol.(i) <- !hi;
            hcol.(i + 1) <- !hj
          done;
          let c, s = givens hcol.(jj) hcol.(jj + 1) in
          ws.cs.(jj) <- c;
          ws.sn.(jj) <- s;
          hi := hcol.(jj);
          hj := hcol.(jj + 1);
          apply_givens c s hi hj;
          hcol.(jj) <- !hi;
          hcol.(jj + 1) <- Cx.zero;
          hi := ws.g.(jj);
          hj := ws.g.(jj + 1);
          apply_givens c s hi hj;
          ws.g.(jj) <- !hi;
          ws.g.(jj + 1) <- !hj;
          j := jj + 1;
          let res = Cx.abs ws.g.(jj + 1) /. bnorm in
          if res <= tol then live := false
          else if wnorm = 0.0 then live := false (* happy breakdown *)
          else Cvec.scale_inplace (Cx.re (1.0 /. wnorm)) w
        done;
        (* back-substitute the j×j triangular system *)
        let k = !j in
        for i = k - 1 downto 0 do
          let s = ref ws.g.(i) in
          for l = i + 1 to k - 1 do
            s := Cx.( -: ) !s (Cx.( *: ) ws.h.(l).(i) ws.y.(l))
          done;
          ws.y.(i) <- Cx.( /: ) !s ws.h.(i).(i)
        done;
        add_correction ~precond ws ~cols:k x;
        incr cycles;
        cycle rel0
      end
    in
    cycle infinity
  end
