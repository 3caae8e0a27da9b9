(* Per-step solver bank: M_k factorizations, k = 1..m at index k-1. *)
type step_solver =
  | Sdense of Clu.t array
  | Ssparse of Csplu.t array

(* The C/h multiply in the recurrences, in the backend's storage. *)
type cmul =
  | Cm_dense of Mat.t
  | Cm_sparse of Csr.t

(* The periodic wrap matrix I - Φ(ω): either factorized densely (Φ
   formed column by column), or applied matrix-free with GMRES — one
   variational sweep through the step solvers per product, never
   forming Φ.  A krylov wrap that stagnates builds the dense
   factorization once (under [lock]) and latches it. *)
type wrap =
  | Wdense of Clu.t
  | Wkrylov of {
      mutable dense : Clu.t option; (* stagnation rung, built at most once *)
      lock : Mutex.t;
    }

type t = {
  pss : Pss.t;
  f_offset : float;
  omega : float;
  n : int;
  m : int; (* grid steps per period *)
  h : float;
  cmul : cmul;
  solvers : step_solver;
  wrap : wrap;
}

(* Scratch vectors for the allocation-free apply/solve kernels, in
   split re/im storage like every Cvec: [ct1] carries the intermediate
   of a step apply (the (C/h)·p product, or the transposed solve's
   result), [ct2] is the transposed-solve scratch (and solve_source's
   homogeneous part), [ct3] the sparse forward-solve scratch.  One
   workspace per lane — sharing one across domains is a data race. *)
type ws = {
  ct1 : Cvec.t;
  ct2 : Cvec.t;
  ct3 : Cvec.t;
}

let make_ws n = { ct1 = Cvec.create n; ct2 = Cvec.create n; ct3 = Cvec.create n }

(* dst <- (C/h)·v, the real matrix applied to each half; dst must not
   alias v *)
let cmul_apply_into cm (v : Cvec.t) (dst : Cvec.t) =
  match cm with
  | Cm_dense mat ->
    Mat.mul_vec_into mat v.re dst.re;
    Mat.mul_vec_into mat v.im dst.im
  | Cm_sparse c ->
    Csr.mul_vec_into c v.re dst.re;
    Csr.mul_vec_into c v.im dst.im

(* dst <- (C/h)ᵀ·v; dst must not alias v *)
let cmul_tapply_into cm (v : Cvec.t) (dst : Cvec.t) =
  match cm with
  | Cm_dense mat ->
    Mat.tmul_vec_into mat v.re dst.re;
    Mat.tmul_vec_into mat v.im dst.im
  | Cm_sparse c ->
    Csr.tmul_vec_into c v.re dst.re;
    Csr.tmul_vec_into c v.im dst.im

(* dst <- M_k⁻¹ b; dst is neither b nor ws.ct3 *)
let solve_step_into ws solvers ~k b dst =
  match solvers with
  | Sdense clus -> Clu.solve_into clus.(k - 1) b dst
  | Ssparse fs -> Csplu.solve_into fs.(k - 1) ~scratch:ws.ct3 b dst

let solve_step_transpose_into ws solvers ~k b dst =
  match solvers with
  | Sdense clus -> Clu.solve_transpose_into clus.(k - 1) ~scratch:ws.ct2 b dst
  | Ssparse fs -> Csplu.solve_transpose_into fs.(k - 1) ~scratch:ws.ct2 b dst

(* A_{k-1} p = M_k⁻¹ (C/h) p   (maps p_{k-1} to the homogeneous part of p_k);
   dst may alias p but not ws.ct1 *)
let a_apply_into ws ~solvers ~cmul ~k p dst =
  cmul_apply_into cmul p ws.ct1;
  solve_step_into ws solvers ~k ws.ct1 dst

(* A_{k-1}ᵀ w = (C/h)ᵀ M_k⁻ᵀ w; dst may alias w but not ws.ct1/ws.ct2 *)
let a_transpose_apply_into ws ~solvers ~cmul ~k w dst =
  solve_step_transpose_into ws solvers ~k w ws.ct1;
  cmul_tapply_into cmul ws.ct1 dst

(* column j of Φ(ω) into [phi]: the unit vector e_j swept through
   every step; [v] is the sweep's storage *)
let phi_column ws ~solvers ~cmul ~m (v : Cvec.t) (phi : Cmat.t) j =
  let n = Cvec.dim v in
  Cvec.fill v Cx.zero;
  v.re.(j) <- 1.0;
  for k = 1 to m do
    a_apply_into ws ~solvers ~cmul ~k v v
  done;
  for i = 0 to n - 1 do
    phi.re.((i * n) + j) <- v.re.(i);
    phi.im.((i * n) + j) <- v.im.(i)
  done

let build ?(domains = 1) ?solver ?(policy = Retry.default) ?budget
    (pss : Pss.t) ~f_offset =
  Obs.span "lptv.build" @@ fun () ->
  let circuit = pss.Pss.circuit in
  let n = Circuit.size circuit in
  let m = pss.Pss.steps in
  Obs.count "lptv.builds" 1;
  Obs.count "lptv.steps" m;
  let h = pss.Pss.period /. float_of_int m in
  let omega = 2.0 *. Float.pi *. f_offset in
  let solver = Option.value solver ~default:(Linsys.solver_for n) in
  Domain_pool.with_pool domains @@ fun pool ->
  let cmul, solvers =
    Obs.span "lptv.factor_steps" @@ fun () ->
    match solver with
    | Linsys.Dense ->
      let c_mat = Linsys.rmat_dense pss.Pss.c_mat in
      let c_over_h = Mat.scale (1.0 /. h) c_mat in
      (* factorize M_k = C(1/h + jω) + G(t_k) for k = 1..m — the m
         factorizations are independent; each lane stamps into its own
         g/jac workspace (a shared stamp buffer would be a data race) *)
      let clus = Array.make m None in
      (* a lane exception (incl. an injected "lptv.factor" fault) drains
         the pool and re-raises here; the phase is a deterministic
         write-per-slot loop, so a bounded re-run recovers bit-identically *)
      Retry.with_transients ~policy ~label:"lptv" (fun () ->
          Domain_pool.parallel_for_ws pool m ~label:"lptv.factor_steps"
            ~chunk:(Domain_pool.chunk_hint pool m)
            ?should_stop:(Budget.stop_opt budget)
            ~init:(fun () -> (Vec.create n, Mat.create n n))
            (fun (g_buf, jac) i ->
              Faultsim.check_exn "lptv.factor";
              let k = i + 1 in
              Stamp.eval circuit ~t:pss.Pss.times.(k) ~gmin:1e-12
                ~x:pss.Pss.states.(k) ~g:g_buf
                ~jac:(Some (Stamp.dense_sink jac))
                ();
              let mk = Cmat.create n n in
              for r = 0 to n - 1 do
                for c = 0 to n - 1 do
                  mk.re.((r * n) + c) <-
                    Mat.get jac r c +. Mat.get c_over_h r c;
                  mk.im.((r * n) + c) <- omega *. Mat.get c_mat r c
                done
              done;
              Obs.count "lptv.fact.dense" 1;
              clus.(i) <- Some (Clu.factorize mk)));
      Budget.check_opt budget;
      let clus =
        Array.map (function Some c -> c | None -> assert false) clus
      in
      (Cm_dense c_over_h, Sdense clus)
    | Linsys.Sparse | Linsys.Krylov ->
      let pat = Stamp.pattern circuit in
      let nnz = Csr.nnz pat in
      (* C values aligned position-for-position with the pattern *)
      let c_vals = Array.make nnz 0.0 in
      Stamp.stamp_c circuit ~add:(fun i j v ->
          let p = Csr.index pat i j in
          c_vals.(p) <- c_vals.(p) +. v);
      let zvals_at gcsr (zvals : Cvec.t) =
        let gv = gcsr.Csr.v in
        for p = 0 to nnz - 1 do
          zvals.re.(p) <- gv.(p) +. (c_vals.(p) /. h);
          zvals.im.(p) <- omega *. c_vals.(p)
        done
      in
      let stamp_into g_buf gcsr k =
        Stamp.eval circuit ~t:pss.Pss.times.(k) ~gmin:1e-12
          ~x:pss.Pss.states.(k) ~g:g_buf ~jac:(Some (Stamp.csr_sink gcsr)) ()
      in
      (* one symbolic plan, built serially on the k = 1 values, shared
         read-only by every lane *)
      let plan =
        let g_buf = Vec.create n in
        let gcsr = Csr.copy pat in
        let zvals = Cvec.create nnz in
        stamp_into g_buf gcsr 1;
        zvals_at gcsr zvals;
        Linsys.csplu_plan ~counter:"lptv.csplu.plans" pat zvals
      in
      let fs = Array.make m None in
      Retry.with_transients ~policy ~label:"lptv" (fun () ->
          Domain_pool.parallel_for_ws pool m ~label:"lptv.factor_steps"
            ~chunk:(Domain_pool.chunk_hint pool m)
            ?should_stop:(Budget.stop_opt budget)
            ~init:(fun () ->
              (Vec.create n, Csr.copy pat, Cvec.create nnz))
            (fun (g_buf, gcsr, zvals) i ->
              Faultsim.check_exn "lptv.factor";
              let k = i + 1 in
              stamp_into g_buf gcsr k;
              zvals_at gcsr zvals;
              Obs.count "lptv.fact.sparse" 1;
              fs.(i) <- Some (Csplu.factorize plan pat zvals)));
      Budget.check_opt budget;
      let fs = Array.map (function Some f -> f | None -> assert false) fs in
      (Cm_sparse (Csr.scale (1.0 /. h) (Linsys.rmat_csr pss.Pss.c_mat)),
       Ssparse fs)
  in
  if solver = Linsys.Krylov then begin
    (* matrix-free wrap: no Φ(ω), no dense factorization — build cost
       is the factor_steps phase alone, O(m·nnz) on the sparse path *)
    Obs.count "lptv.wrap.krylov" 1;
    { pss; f_offset; omega; n; m; h; cmul; solvers;
      wrap = Wkrylov { dense = None; lock = Mutex.create () } }
  end
  else begin
    (* Φ(ω) column by column (independent), then factorize I - Φ *)
    let phi = Cmat.create n n in
    Obs.count "lptv.phi.dense" 1;
    Obs.span "lptv.phi" (fun () ->
        Retry.with_transients ~policy ~label:"lptv" (fun () ->
            Domain_pool.parallel_for_ws pool n ~label:"lptv.phi"
              ~chunk:(Domain_pool.chunk_hint pool n)
              ?should_stop:(Budget.stop_opt budget)
              ~init:(fun () -> (make_ws n, Cvec.create n))
              (fun (ws, v) j -> phi_column ws ~solvers ~cmul ~m v phi j)));
    Budget.check_opt budget;
    Obs.span "lptv.wrap" @@ fun () ->
    let wrap = Cmat.sub (Cmat.identity n) phi in
    { pss; f_offset; omega; n; m; h; cmul; solvers;
      wrap = Wdense (Clu.factorize wrap) }
  end

(* dst <- src − dst *)
let sub_from (src : Cvec.t) (dst : Cvec.t) =
  for i = 0 to Cvec.dim src - 1 do
    dst.re.(i) <- src.re.(i) -. dst.re.(i);
    dst.im.(i) <- src.im.(i) -. dst.im.(i)
  done

(* GMRES matrix-vector products for the krylov wrap.  [src] is
   preserved; [dst] is one full forward (or backward) variational sweep
   subtracted from the identity. *)
let wrap_apply t ws src dst =
  Cvec.blit src dst;
  for k = 1 to t.m do
    a_apply_into ws ~solvers:t.solvers ~cmul:t.cmul ~k dst dst
  done;
  sub_from src dst

let wrap_tapply t ws src dst =
  Cvec.blit src dst;
  for k = t.m downto 1 do
    a_transpose_apply_into ws ~solvers:t.solvers ~cmul:t.cmul ~k dst dst
  done;
  sub_from src dst

(* Stagnation rung: form I - Φ(ω) densely after all.  The serial column
   loop runs the exact per-column operation sequence of the pool phase
   in [build], so the factored matrix is bit-identical to what a dense
   build would have produced. *)
let dense_wrap t =
  Obs.count "lptv.phi.dense" 1;
  let ws = make_ws t.n in
  let v = Cvec.create t.n in
  let phi = Cmat.create t.n t.n in
  for j = 0 to t.n - 1 do
    phi_column ws ~solvers:t.solvers ~cmul:t.cmul ~m:t.m v phi j
  done;
  Clu.factorize (Cmat.sub (Cmat.identity t.n) phi)

let wrap_fallback_lu t =
  match t.wrap with
  | Wdense lu -> lu
  | Wkrylov st ->
    Mutex.lock st.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock st.lock)
      (fun () ->
        match st.dense with
        | Some lu -> lu
        | None ->
          Retry.rung "lptv.gmres_fallback";
          Linsys.note_krylov_fallback ();
          let lu = dense_wrap t in
          st.dense <- Some lu;
          lu)

let gmres_restart = Gmres.default_restart

(* (I - Φ(ω))·x = rhs, fresh [x]; GMRES on the krylov wrap with the
   dense rung on stagnation (or an injected ["lptv.gmres"] fault) *)
let wrap_solve t ws rhs =
  match t.wrap with
  | Wdense lu -> Clu.solve lu rhs
  | Wkrylov st -> (
    match st.dense with
    | Some lu -> Clu.solve lu rhs
    | None ->
      let x = Cvec.create t.n in
      let converged =
        match Faultsim.fire "lptv.gmres" with
        | Some _ -> false
        | None ->
          let gws = Gmres.make_ws ~n:t.n ~restart:gmres_restart in
          let stats =
            Gmres.solve ~apply:(fun src dst -> wrap_apply t ws src dst) gws
              ~b:rhs ~x
          in
          stats.Gmres.converged
      in
      if converged then x else Clu.solve (wrap_fallback_lu t) rhs)

(* (I - Φ(ω))ᵀ·dst = rhs for the adjoint; same ladder as [wrap_solve] *)
let wrap_solve_transpose_into t ws rhs dst =
  match t.wrap with
  | Wdense lu -> Clu.solve_transpose_into lu ~scratch:ws.ct2 rhs dst
  | Wkrylov st -> (
    match st.dense with
    | Some lu -> Clu.solve_transpose_into lu ~scratch:ws.ct2 rhs dst
    | None ->
      let converged =
        match Faultsim.fire "lptv.gmres" with
        | Some _ -> false
        | None ->
          let gws = Gmres.make_ws ~n:t.n ~restart:gmres_restart in
          Cvec.fill dst Cx.zero;
          let stats =
            Gmres.solve ~apply:(fun src d -> wrap_tapply t ws src d) gws
              ~b:rhs ~x:dst
          in
          stats.Gmres.converged
      in
      if not converged then
        Clu.solve_transpose_into (wrap_fallback_lu t) ~scratch:ws.ct2 rhs dst)

let pss t = t.pss
let steps t = t.m
let f_offset t = t.f_offset

type injection = int -> (int * float) list

let constant_injection rows = fun _k -> rows

(* the imaginary half stays +0.0: adding Cx.re v's +0.0 to it is exact *)
let rhs_of t ~k (inj : injection) =
  let b = Cvec.create t.n in
  List.iter (fun (row, v) -> b.re.(row) <- b.re.(row) +. v) (inj k);
  b

let solve_source t inj =
  (* particular forcing accumulated over one period from p_0 = 0:
     q_k = A_{k-1} q_{k-1} + M_k⁻¹ b_k; then (I - Φ)·p_0 = q_m *)
  Obs.count "lptv.source_solves" 1;
  let ws = make_ws t.n in
  (* the per-step forced vectors M_k⁻¹ b_k are shared by the wrap pass
     and the final sweep — solve each only once *)
  let forced =
    Array.init t.m (fun i ->
        let b = rhs_of t ~k:(i + 1) inj in
        solve_step_into ws t.solvers ~k:(i + 1) b ws.ct1;
        Cvec.blit ws.ct1 b;
        b)
  in
  let q = Cvec.create t.n in
  for k = 1 to t.m do
    a_apply_into ws ~solvers:t.solvers ~cmul:t.cmul ~k q q;
    Cvec.add_inplace q forced.(k - 1)
  done;
  let p0 = wrap_solve t ws q in
  let p = Array.make (t.m + 1) p0 in
  for k = 1 to t.m do
    (* p_k = A_{k-1} p_{k-1} + forced_k; the forced vector is dead after
       this step and doubles as p_k's storage *)
    let pk = forced.(k - 1) in
    a_apply_into ws ~solvers:t.solvers ~cmul:t.cmul ~k p.(k - 1) ws.ct2;
    Cvec.add_inplace pk ws.ct2;
    p.(k) <- pk
  done;
  p

let harmonic_of_response t (p : Cvec.t array) ~row ~harmonic =
  Obs.count "lptv.harmonics" 1;
  let sr = ref 0.0 and si = ref 0.0 in
  for k = 1 to t.m do
    let ang = -2.0 *. Float.pi *. float_of_int (harmonic * k) /. float_of_int t.m in
    let c = cos ang and s = sin ang in
    let pr = p.(k).re.(row) and pi = p.(k).im.(row) in
    sr := !sr +. ((pr *. c) -. (pi *. s));
    si := !si +. ((pr *. s) +. (pi *. c))
  done;
  let w = 1.0 /. float_of_int t.m in
  Cx.mk (w *. !sr) (w *. !si)

type functional = Cvec.t array

(* Backward pass: given c_k (k = 1..m) output weights, find λ_k with
     λ_k = c_k + A_kᵀ λ_{k+1}   (k = 1..m-1, A_k uses solvers.(k))
     λ_m = c_m + A_0ᵀ λ_1       (cyclic, A_0 uses solvers.(0))
   then λ̃_k = M_k⁻ᵀ λ_k is ∂y/∂b_k.

   [c_add k v] adds the output weight c_k into [v] — sparse functionals
   stay allocation-free this way. *)
let adjoint_general t (c_add : int -> Cvec.t -> unit) : functional =
  Obs.count "lptv.adjoint_solves" 1;
  let ws = make_ws t.n in
  let lam = Array.init (t.m + 1) (fun _ -> Cvec.create t.n) in
  let backward () =
    for k = t.m - 1 downto 1 do
      (* A_k maps p_k -> p_{k+1}, built from solvers.(k) (i.e. M_{k+1}) *)
      a_transpose_apply_into ws ~solvers:t.solvers ~cmul:t.cmul ~k:(k + 1)
        lam.(k + 1) lam.(k);
      c_add k lam.(k)
    done
  in
  (* first pass with λ_m = 0 to get d_1 *)
  backward ();
  (* (I - Φᵀ) λ_m = c_m + A_0ᵀ d_1 *)
  let rhs = Cvec.create t.n in
  a_transpose_apply_into ws ~solvers:t.solvers ~cmul:t.cmul ~k:1 lam.(1) rhs;
  c_add t.m rhs;
  wrap_solve_transpose_into t ws rhs lam.(t.m);
  backward ();
  (* λ̃_k = M_k⁻ᵀ λ_k, written back over λ_k's storage *)
  for k = 1 to t.m do
    solve_step_transpose_into ws t.solvers ~k lam.(k) ws.ct1;
    Cvec.blit ws.ct1 lam.(k)
  done;
  Array.sub lam 1 t.m

let adjoint_harmonic t ~row ~harmonic =
  Obs.count "lptv.harmonics" 1;
  let weight = 1.0 /. float_of_int t.m in
  adjoint_general t (fun k (v : Cvec.t) ->
      let ang =
        -2.0 *. Float.pi *. float_of_int (harmonic * k) /. float_of_int t.m
      in
      v.re.(row) <- v.re.(row) +. (weight *. cos ang);
      v.im.(row) <- v.im.(row) +. (weight *. sin ang))

let adjoint_sample t ~row ~k:ksample =
  if ksample < 1 || ksample > t.m then invalid_arg "Lptv.adjoint_sample";
  adjoint_general t (fun k (v : Cvec.t) ->
      if k = ksample then begin
        (* Cx.one's +0.0 imaginary part is added too: it turns a -0.0
           into +0.0 *)
        v.re.(row) <- v.re.(row) +. 1.0;
        v.im.(row) <- v.im.(row) +. 0.0
      end)

let apply (lam : functional) (inj : injection) =
  (* the running sum in a float array, so the closure's updates stay
     unboxed *)
  let s = [| 0.0; 0.0 |] in
  for i = 0 to Array.length lam - 1 do
    let lam_k = lam.(i) in
    List.iter
      (fun (row, v) ->
        s.(0) <- s.(0) +. (v *. lam_k.re.(row));
        s.(1) <- s.(1) +. (v *. lam_k.im.(row)))
      (inj (i + 1))
  done;
  Cx.mk s.(0) s.(1)
