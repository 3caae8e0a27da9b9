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

(* Scratch buffers for the allocation-free apply/solve kernels.  One
   workspace per lane — sharing one across domains is a data race. *)
type ws = {
  re_in : Vec.t;
  im_in : Vec.t;
  re_out : Vec.t;
  im_out : Vec.t;
  ct1 : Cvec.t; (* per-step solve rhs inside a_apply *)
  ct2 : Cvec.t; (* transpose-solve scratch / second intermediate *)
  ct3 : Cvec.t; (* sparse forward-solve scratch *)
}

let make_ws n =
  {
    re_in = Vec.create n;
    im_in = Vec.create n;
    re_out = Vec.create n;
    im_out = Vec.create n;
    ct1 = Cvec.create n;
    ct2 = Cvec.create n;
    ct3 = Cvec.create n;
  }

(* dst <- (C/h)·v, complex v through the real matrix; dst may alias v *)
let cmul_apply_into ws cm (v : Cvec.t) (dst : Cvec.t) =
  let n = Array.length v in
  for i = 0 to n - 1 do
    let z = Array.unsafe_get v i in
    Array.unsafe_set ws.re_in i z.Cx.re;
    Array.unsafe_set ws.im_in i z.Cx.im
  done;
  (match cm with
   | Cm_dense mat ->
     Mat.mul_vec_into mat ws.re_in ws.re_out;
     Mat.mul_vec_into mat ws.im_in ws.im_out
   | Cm_sparse c ->
     Csr.mul_vec_into c ws.re_in ws.re_out;
     Csr.mul_vec_into c ws.im_in ws.im_out);
  for i = 0 to n - 1 do
    Array.unsafe_set dst i
      (Cx.mk (Array.unsafe_get ws.re_out i) (Array.unsafe_get ws.im_out i))
  done

(* dst <- (C/h)ᵀ·v; dst may alias v *)
let cmul_tapply_into ws cm (v : Cvec.t) (dst : Cvec.t) =
  let n = Array.length v in
  for i = 0 to n - 1 do
    let z = Array.unsafe_get v i in
    Array.unsafe_set ws.re_in i z.Cx.re;
    Array.unsafe_set ws.im_in i z.Cx.im
  done;
  (match cm with
   | Cm_dense mat ->
     Mat.tmul_vec_into mat ws.re_in ws.re_out;
     Mat.tmul_vec_into mat ws.im_in ws.im_out
   | Cm_sparse c ->
     Csr.tmul_vec_into c ws.re_in ws.re_out;
     Csr.tmul_vec_into c ws.im_in ws.im_out);
  for i = 0 to n - 1 do
    Array.unsafe_set dst i
      (Cx.mk (Array.unsafe_get ws.re_out i) (Array.unsafe_get ws.im_out i))
  done

(* dst <- M_k⁻¹ b; b is consumed from ws.ct1 by the callers, dst may
   alias the caller's vector but not ws.ct1/ws.ct3 *)
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
  cmul_apply_into ws cmul p ws.ct1;
  solve_step_into ws solvers ~k ws.ct1 dst

(* A_{k-1}ᵀ w = (C/h)ᵀ M_k⁻ᵀ w; dst may alias w but not ws.ct1/ws.ct2 *)
let a_transpose_apply_into ws ~solvers ~cmul ~k w dst =
  solve_step_transpose_into ws solvers ~k w ws.ct1;
  cmul_tapply_into ws cmul ws.ct1 dst

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
  let c_over_h = Mat.scale (1.0 /. h) pss.Pss.c_mat in
  let solver = Option.value solver ~default:(Linsys.solver_for n) in
  Domain_pool.with_pool domains @@ fun pool ->
  let cmul, solvers =
    Obs.span "lptv.factor_steps" @@ fun () ->
    match solver with
    | Linsys.Dense ->
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
              let mk =
                Cmat.init n n (fun r c ->
                    Cx.mk
                      (Mat.get jac r c +. Mat.get c_over_h r c)
                      (omega *. Mat.get pss.Pss.c_mat r c))
              in
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
      let zvals_at gcsr zvals =
        let gv = gcsr.Csr.v in
        for p = 0 to nnz - 1 do
          zvals.(p) <-
            Cx.mk (gv.(p) +. (c_vals.(p) /. h)) (omega *. c_vals.(p))
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
        let zvals = Array.make nnz Cx.zero in
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
              (Vec.create n, Csr.copy pat, Array.make nnz Cx.zero))
            (fun (g_buf, gcsr, zvals) i ->
              Faultsim.check_exn "lptv.factor";
              let k = i + 1 in
              stamp_into g_buf gcsr k;
              zvals_at gcsr zvals;
              Obs.count "lptv.fact.sparse" 1;
              fs.(i) <- Some (Csplu.factorize plan pat zvals)));
      Budget.check_opt budget;
      let fs = Array.map (function Some f -> f | None -> assert false) fs in
      (Cm_sparse (Csr.of_dense c_over_h), Ssparse fs)
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
              (fun (ws, v) j ->
                Cvec.fill v Cx.zero;
                v.(j) <- Cx.one;
                for k = 1 to m do
                  a_apply_into ws ~solvers ~cmul ~k v v
                done;
                for i = 0 to n - 1 do
                  Cmat.set phi i j v.(i)
                done)));
    Budget.check_opt budget;
    Obs.span "lptv.wrap" @@ fun () ->
    let wrap = Cmat.sub (Cmat.identity n) phi in
    { pss; f_offset; omega; n; m; h; cmul; solvers;
      wrap = Wdense (Clu.factorize wrap) }
  end

(* GMRES matrix-vector products for the krylov wrap.  [src] is
   preserved; [dst] is one full forward (or backward) variational sweep
   subtracted from the identity. *)
let wrap_apply t ws src dst =
  Cvec.blit src dst;
  for k = 1 to t.m do
    a_apply_into ws ~solvers:t.solvers ~cmul:t.cmul ~k dst dst
  done;
  for i = 0 to t.n - 1 do
    dst.(i) <- Cx.( -: ) src.(i) dst.(i)
  done

let wrap_tapply t ws src dst =
  Cvec.blit src dst;
  for k = t.m downto 1 do
    a_transpose_apply_into ws ~solvers:t.solvers ~cmul:t.cmul ~k dst dst
  done;
  for i = 0 to t.n - 1 do
    dst.(i) <- Cx.( -: ) src.(i) dst.(i)
  done

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
    Cvec.fill v Cx.zero;
    v.(j) <- Cx.one;
    for k = 1 to t.m do
      a_apply_into ws ~solvers:t.solvers ~cmul:t.cmul ~k v v
    done;
    for i = 0 to t.n - 1 do
      Cmat.set phi i j v.(i)
    done
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

let rhs_of t ~k (inj : injection) =
  let b = Cvec.create t.n in
  List.iter (fun (row, v) -> b.(row) <- Cx.( +: ) b.(row) (Cx.re v)) (inj k);
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
        match t.solvers with
        | Sdense clus ->
          Clu.solve_inplace clus.(i) b;
          b
        | Ssparse fs -> Csplu.solve fs.(i) b)
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

let harmonic_of_response t p ~row ~harmonic =
  Obs.count "lptv.harmonics" 1;
  let s = ref Cx.zero in
  for k = 1 to t.m do
    let ang = -2.0 *. Float.pi *. float_of_int (harmonic * k) /. float_of_int t.m in
    s := Cx.( +: ) !s (Cx.( *: ) p.(k).(row) (Cx.exp_i ang))
  done;
  Cx.scale (1.0 /. float_of_int t.m) !s

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
  Array.init t.m (fun i ->
      match t.solvers with
      | Sdense clus -> Clu.solve_transpose clus.(i) lam.(i + 1)
      | Ssparse fs -> Csplu.solve_transpose fs.(i) lam.(i + 1))

let adjoint_harmonic t ~row ~harmonic =
  Obs.count "lptv.harmonics" 1;
  let weight = 1.0 /. float_of_int t.m in
  adjoint_general t (fun k v ->
      let ang =
        -2.0 *. Float.pi *. float_of_int (harmonic * k) /. float_of_int t.m
      in
      v.(row) <- Cx.( +: ) v.(row) (Cx.scale weight (Cx.exp_i ang)))

let adjoint_sample t ~row ~k:ksample =
  if ksample < 1 || ksample > t.m then invalid_arg "Lptv.adjoint_sample";
  adjoint_general t (fun k v ->
      if k = ksample then v.(row) <- Cx.( +: ) v.(row) Cx.one)

let apply (lam : functional) (inj : injection) =
  let s = ref Cx.zero in
  Array.iteri
    (fun i lam_k ->
      let k = i + 1 in
      List.iter
        (fun (row, v) -> s := Cx.( +: ) !s (Cx.scale v lam_k.(row)))
        (inj k))
    lam;
  !s
