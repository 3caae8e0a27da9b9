type contribution = {
  param : Circuit.mismatch_param;
  df_ddelta : float;
  variance_share : float;
}

type report = {
  frequency : float;
  sigma_f : float;
  sigma_t : float;
  contributions : contribution array;
}

(* dT/dδ for every mismatch parameter via one adjoint backward pass *)
let period_sensitivities (osc : Pss_osc.t) =
  let pss = osc.Pss_osc.pss in
  let circuit = pss.Pss.circuit in
  let n = Circuit.size circuit in
  let m = pss.Pss.steps in
  let h = pss.Pss.period /. float_of_int m in
  let c_over_h = Mat.scale (1.0 /. h) (Linsys.rmat_dense pss.Pss.c_mat) in
  (* augmented shooting Jacobian at the solution *)
  let xdot_t =
    Vec.scale (1.0 /. h) (Vec.sub pss.Pss.states.(m) pss.Pss.states.(m - 1))
  in
  let j = Mat.create (n + 1) (n + 1) in
  for i = 0 to n - 1 do
    for jj = 0 to n - 1 do
      Mat.set j i jj
        (Mat.get (Pss.monodromy pss) i jj -. if i = jj then 1.0 else 0.0)
    done;
    Mat.set j i n xdot_t.(i)
  done;
  Mat.set j n osc.Pss_osc.anchor_row 1.0;
  let jlu = Lu.factorize j in
  let e_last = Vec.basis (n + 1) n in
  let z = Lu.solve_transpose jlu e_last in
  let y = Array.sub z 0 n in
  (* backward pass: w_m = y; w_k = A_kᵀ w_{k+1} = (C/h)ᵀ (M_{k+1}⁻ᵀ w_{k+1});
     λ_k = M_k⁻ᵀ w_k *)
  let lambdas = Array.make (m + 1) [||] in
  let w = ref y in
  lambdas.(m) <- Linsys.solve_transpose pss.Pss.step_facts.(m - 1) !w;
  for k = m - 1 downto 1 do
    (* A_k uses M_{k+1} = step_facts.(k) *)
    let tmp = Linsys.solve_transpose pss.Pss.step_facts.(k) !w in
    w := Mat.tmul_vec c_over_h tmp;
    lambdas.(k) <- Linsys.solve_transpose pss.Pss.step_facts.(k - 1) !w
  done;
  let params = Circuit.mismatch_params circuit in
  Array.map
    (fun (p : Circuit.mismatch_param) ->
      let dt_ddelta = ref 0.0 in
      for k = 1 to m do
        let x = pss.Pss.states.(k) in
        let xdot = Pss.xdot pss ~k in
        let b = Stamp.injection circuit p ~x ~xdot () in
        List.iter
          (fun (row, v) -> dt_ddelta := !dt_ddelta +. (lambdas.(k).(row) *. v))
          b
      done;
      (p, !dt_ddelta))
    params

let analyze osc =
  let pss = osc.Pss_osc.pss in
  let t0 = pss.Pss.period in
  let f0 = 1.0 /. t0 in
  let sens = period_sensitivities osc in
  let contributions =
    Array.map
      (fun ((p : Circuit.mismatch_param), dt) ->
        let df = -.dt /. (t0 *. t0) in
        let s = df *. p.Circuit.sigma in
        { param = p; df_ddelta = df; variance_share = s *. s })
      sens
  in
  let var =
    Array.fold_left (fun acc c -> acc +. c.variance_share) 0.0 contributions
  in
  {
    frequency = f0;
    sigma_f = sqrt var;
    sigma_t = sqrt var /. (f0 *. f0);
    contributions;
  }

let frequency_shift osc ~deltas =
  let r = analyze osc in
  Array.fold_left
    (fun acc c ->
      acc +. (c.df_ddelta *. deltas.(c.param.Circuit.param_index)))
    0.0 r.contributions
