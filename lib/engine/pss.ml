type t = {
  circuit : Circuit.t;
  period : float;
  steps : int;
  times : float array;
  states : Vec.t array;
  c_mat : Linsys.rmat;
  sys : Linsys.rsys;
  step_facts : Linsys.rfact array;
  mutable monodromy : Mat.t option;
  iterations : int;
  residual : float;
}

exception No_convergence of string

(* X <- (C/h + G)⁻¹ (C/h) X for one step, column by column, through the
   dense C (the monodromy is n×n anyway, and a CSR C converts exactly) *)
let monodromy_step ~c_dense ~h ~scratch fact m =
  for j = 0 to Mat.cols m - 1 do
    let col = Mat.col m j in
    let rhs = Vec.scale (1.0 /. h) (Mat.mul_vec c_dense col) in
    Linsys.solve_inplace fact ~scratch rhs;
    for i = 0 to Mat.rows m - 1 do
      Mat.set m i j rhs.(i)
    done
  done

(* Dense monodromy from the per-step factorizations: X <- A_k X for
   k = 1..m.  The in-sweep accumulation below runs the same
   [monodromy_step], so a krylov run that falls back here produces a
   bit-identical matrix. *)
let accumulate_monodromy ~c_mat ~h ~facts n =
  Obs.count "pss.monodromy.dense" 1;
  let c_dense = Linsys.rmat_dense c_mat in
  let scratch = Vec.create n in
  let m = Mat.identity n in
  Array.iter (fun fact -> monodromy_step ~c_dense ~h ~scratch fact m) facts;
  m

let monodromy t =
  match t.monodromy with
  | Some m -> m
  | None ->
    let h = t.period /. float_of_int t.steps in
    let m =
      accumulate_monodromy ~c_mat:t.c_mat ~h ~facts:t.step_facts
        (Circuit.size t.circuit)
    in
    t.monodromy <- Some m;
    m

(* Integrate one period with BE from x0; record states and per-step
   factorizations; optionally accumulate the monodromy matrix. *)
let sweep ~circuit ~sys ~c_mat ~tran_options ~t0 ~period ~steps ~x0 ?budget
    ?policy ~want_monodromy () =
  let n = Vec.dim x0 in
  let h = period /. float_of_int steps in
  let times = Array.init (steps + 1) (fun k -> t0 +. (h *. float_of_int k)) in
  let states = Array.make (steps + 1) x0 in
  let facts = Array.make steps None in
  let mono =
    if want_monodromy then
      Some (Mat.identity n, Linsys.rmat_dense c_mat, Vec.create n)
    else None
  in
  for k = 0 to steps - 1 do
    let r =
      Tran.step ~options:tran_options ~circuit ~sys ~c_mat
        ~x_prev:states.(k) ~t_prev:times.(k) ~t_next:times.(k + 1) ?budget
        ?policy ()
    in
    if not r.Newton.converged then begin
      let where =
        match r.Newton.worst_row with
        | Some j -> Printf.sprintf " at %s" (Circuit.row_name circuit j)
        | None -> ""
      in
      raise
        (No_convergence
           (Printf.sprintf
              "PSS sweep: step at t=%.4g did not converge: residual %.3g%s \
               (trajectory %s)"
              times.(k + 1) r.Newton.residual_norm where
              (Newton.history_string r.Newton.residual_history)))
    end;
    states.(k + 1) <- r.Newton.x;
    let fact =
      match r.Newton.last_fact with
      | Some f -> f
      | None -> raise (No_convergence "PSS sweep: no step factorization")
    in
    facts.(k) <- Some fact;
    match mono with
    | None -> ()
    | Some (m, c_dense, scratch) -> monodromy_step ~c_dense ~h ~scratch fact m
  done;
  let facts =
    Array.map (function Some f -> f | None -> assert false) facts
  in
  (times, states, facts, Option.map (fun (m, _, _) -> m) mono)

(* δ from (I − Φ)·δ = r without forming Φ: GMRES on the complexified
   operator, one variational sweep (reusing the step factorizations)
   per matrix-vector product.  Returns [None] on stagnation — the
   caller's dense rung.  The real/imag parts ride the real operator
   independently, so a real [r] keeps the whole Krylov space real: an
   imaginary half that is all +0.0 is not swept, since the sweep would
   return exact zeros and src − Φ·src would be +0.0 again. *)
let krylov_delta ~c_over_h ~facts ~gws n (r : Vec.t) =
  Obs.span "pss.krylov" @@ fun () ->
  let tmp = Vec.create n and scratch = Vec.create n in
  let phi_apply v =
    Array.iter
      (fun fact ->
        Csr.mul_vec_into c_over_h v tmp;
        Linsys.solve_inplace fact ~scratch tmp;
        Vec.blit tmp v)
      facts
  in
  let part = Vec.create n in
  (* dst <- src − Φ·src on one real half *)
  let sweep_half src dst =
    Vec.blit src part;
    phi_apply part;
    for i = 0 to n - 1 do
      dst.(i) <- src.(i) -. part.(i)
    done
  in
  let apply (src : Cvec.t) (dst : Cvec.t) =
    sweep_half src.re dst.re;
    (* all +0: a nonzero or NaN fails [<> 0.0], and a −0 has a
       negative reciprocal (no [Float.sign_bit] C call per entry) *)
    let zero = ref true in
    for i = 0 to n - 1 do
      let z = src.im.(i) in
      if z <> 0.0 || 1.0 /. z < 0.0 then zero := false
    done;
    if !zero then Vec.fill dst.im 0.0 else sweep_half src.im dst.im
  in
  let b = Cvec.of_real r in
  let x = Cvec.create n in
  let stats = Gmres.solve ~apply gws ~b ~x in
  if stats.Gmres.converged then Some (Cvec.real x) else None

let solve ?(steps = 200) ?(max_iter = 40) ?(tol = 1e-7) ?solver
    ?(policy = Retry.default) ?budget ?(warmup_periods = 2) circuit ~period =
  Obs.span "pss.solve" @@ fun () ->
  Obs.count "pss.solves" 1;
  let solver =
    Option.value solver ~default:(Linsys.solver_for (Circuit.size circuit))
  in
  let sys = Linsys.make ~solver circuit in
  let c_mat = Linsys.c_matrix sys circuit in
  let tran_options = Tran.default_options in
  let x_init =
    let dc = Dc.solve ~solver ~policy ?budget circuit in
    if warmup_periods <= 0 then dc
    else begin
      let w =
        Tran.run ~solver ~policy ?budget ~x0:dc ~record:false circuit
          ~tstart:0.0
          ~tstop:(period *. float_of_int warmup_periods)
          ~dt:(period /. float_of_int steps)
          ()
      in
      w.Waveform.states.(Array.length w.Waveform.states - 1)
    end
  in
  let n = Vec.dim x_init in
  (* sticky per-solve flag: a GMRES stagnation drops the rest of this
     shooting run onto the dense rung, so the fallback trajectory is
     bit-identical to a dense-only run *)
  let use_k = ref (solver = Linsys.Krylov) in
  let gws = lazy (Gmres.make_ws ~n ~restart:Gmres.default_restart) in
  let dense_delta mono r =
    (* Newton on x(T;x0) - x0: (Φ - I)·δ = -r *)
    let j = Mat.sub mono (Mat.identity n) in
    match Lu.factorize j with
    | lu -> Lu.solve lu (Vec.scale (-1.0) r)
    | exception Lu.Singular _ ->
      raise (No_convergence "PSS shooting: singular (monodromy has \
                             an eigenvalue at 1; use Pss_osc?)")
  in
  let solve_with steps =
    let h = period /. float_of_int steps in
    let c_over_h = lazy (Csr.scale (1.0 /. h) (Linsys.rmat_csr c_mat)) in
    let x0 = ref (Vec.copy x_init) in
    let rhist = ref [] in
    let rec iterate iter =
      Budget.check_opt budget;
      let times, states, facts, mono =
        Obs.span "pss.sweep" @@ fun () ->
        sweep ~circuit ~sys ~c_mat ~tran_options ~t0:0.0 ~period ~steps
          ~x0:!x0 ?budget ~policy ~want_monodromy:(not !use_k) ()
      in
      Obs.count "pss.sweep_steps" steps;
      let mono = ref mono in
      let force_mono () =
        match !mono with
        | Some m -> m
        | None ->
          let m = accumulate_monodromy ~c_mat ~h ~facts n in
          mono := Some m;
          m
      in
      let r = Vec.sub states.(steps) !x0 in
      let rnorm = Vec.norm_inf r in
      rhist := rnorm :: !rhist;
      if rnorm < tol then
        {
          circuit; period; steps; times; states; c_mat; sys;
          step_facts = facts; monodromy = !mono; iterations = iter;
          residual = rnorm;
        }
      else if iter >= max_iter then
        raise
          (No_convergence
             (Printf.sprintf
                "PSS shooting stalled: residual %.3g after %d iters \
                 (trajectory %s)"
                rnorm iter
                (Newton.history_string (Array.of_list (List.rev !rhist)))))
      else begin
        Obs.count "pss.shooting_iterations" 1;
        let delta =
          if not !use_k then dense_delta (force_mono ()) r
          else begin
            (* (I − Φ)·δ = r, matrix-free; injected "pss.gmres" faults
               and real stagnation both take the dense rung *)
            let d =
              match Faultsim.fire "pss.gmres" with
              | Some _ -> None
              | None ->
                krylov_delta ~c_over_h:(Lazy.force c_over_h) ~facts
                  ~gws:(Lazy.force gws) n r
            in
            match d with
            | Some d -> d
            | None ->
              Retry.rung "pss.gmres_fallback";
              Linsys.note_krylov_fallback ();
              use_k := false;
              dense_delta (force_mono ()) r
          end
        in
        x0 := Vec.add !x0 delta;
        iterate (iter + 1)
      end
    in
    iterate 0
  in
  (* shooting fallback rung: a sweep that stalls (a BE step that will
     not converge on the current grid) or a stalled shooting loop is
     retried on a 2× finer grid, bounded by the policy *)
  let rec ladder steps tries =
    match solve_with steps with
    | t -> t
    | exception No_convergence _
      when policy.Retry.allow_homotopy && tries < policy.Retry.max_retries ->
      Budget.check_opt budget;
      Retry.rung "pss.refine";
      ladder (steps * 2) (tries + 1)
  in
  ladder steps 0

let state_at t ~k = t.states.(k)

let xdot t ~k =
  if k < 1 || k > t.steps then invalid_arg "Pss.xdot";
  let h = t.period /. float_of_int t.steps in
  Vec.scale (1.0 /. h) (Vec.sub t.states.(k) t.states.(k - 1))

let node_samples t node =
  let id = Circuit.node t.circuit node in
  Array.init t.steps (fun i ->
      if id = 0 then 0.0 else t.states.(i + 1).(id - 1))

let fundamental t node = Fft.fourier_coefficient (node_samples t node) 1
let amplitude t node = 2.0 *. Cx.abs (fundamental t node)

let floquet_multipliers t = Eig.eigenvalues_sorted (monodromy t)

let to_waveform t =
  { Waveform.circuit = t.circuit; times = t.times; states = t.states }
