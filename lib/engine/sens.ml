type contribution = {
  param : Circuit.mismatch_param;
  sensitivity : float;
  variance_share : float;
}

type report = {
  output : string;
  sigma : float;
  contributions : contribution array;
}

let sensitivities ?x_op circuit ~output =
  let x_op = match x_op with Some x -> x | None -> Dc.solve circuit in
  let n = Circuit.size circuit in
  let g = Vec.create n in
  let sys = Linsys.make circuit in
  (* keep a tiny gmin so purely capacitive nodes stay nonsingular *)
  Stamp.eval circuit ~t:0.0 ~gmin:1e-12 ~x:x_op ~g ~jac:(Some sys.Linsys.sink)
    ();
  let fact = Linsys.factorize sys in
  let e = Vec.basis n (Circuit.node_row circuit output) in
  let lambda = Linsys.solve_transpose fact e in
  let params = Circuit.mismatch_params circuit in
  Array.map
    (fun p ->
      (* G·(dx/dδ) + ∂g/∂δ = 0  ⇒  dV_out/dδ = -λᵀ·b *)
      let b = Stamp.injection circuit p ~x:x_op () in
      let s = List.fold_left (fun acc (row, v) -> acc -. (lambda.(row) *. v)) 0.0 b in
      (p, s))
    params

let dc_match ?x_op circuit ~output =
  let sens = sensitivities ?x_op circuit ~output in
  let contributions =
    Array.map
      (fun ((p : Circuit.mismatch_param), s) ->
        let share = s *. p.Circuit.sigma in
        { param = p; sensitivity = s; variance_share = share *. share })
      sens
  in
  let total = Array.fold_left (fun acc c -> acc +. c.variance_share) 0.0 contributions in
  Array.sort (fun a b -> compare b.variance_share a.variance_share) contributions;
  { output; sigma = sqrt total; contributions }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>DC match at %s: sigma = %.6g V@," r.output r.sigma;
  Array.iter
    (fun c ->
      Format.fprintf ppf "  %-12s %-6s S=%+.4g  share=%.3g%%@,"
        c.param.Circuit.device_name
        (Circuit.kind_to_string c.param.Circuit.kind)
        c.sensitivity
        (if r.sigma = 0.0 then 0.0
         else 100.0 *. c.variance_share /. (r.sigma *. r.sigma)))
    r.contributions;
  Format.fprintf ppf "@]"
