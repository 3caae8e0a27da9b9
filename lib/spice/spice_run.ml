let span_name = function
  | Spice_ast.A_op -> "spice.op"
  | Spice_ast.A_dc_match _ -> "spice.dc_match"
  | Spice_ast.A_tran _ -> "spice.tran"
  | Spice_ast.A_ac _ -> "spice.ac"
  | Spice_ast.A_noise _ -> "spice.noise"
  | Spice_ast.A_pss _ -> "spice.pss"
  | Spice_ast.A_mismatch_dc _ -> "spice.mismatch_dc"
  | Spice_ast.A_mismatch_delay _ -> "spice.mismatch_delay"
  | Spice_ast.A_mismatch_freq _ -> "spice.mismatch_freq"
  | Spice_ast.A_monte_carlo _ -> "spice.monte_carlo"
  | Spice_ast.A_yield _ -> "spice.yield"

(* Typed outcome of one analysis card: what {!execute} computes and
   {!render} prints.  The split is what lets the job layer
   ({!Spice_job}) and the serve daemon run cards without committing to
   a formatter, while {!run_analysis} keeps the CLI's historical
   byte-exact output. *)
type result =
  | R_op of Vec.t
  | R_dc_match of Sens.report
  | R_tran of Waveform.t * string list
  | R_ac of (float * Cx.t) list
  | R_noise of Noise_lti.point array
  | R_pss of Pss.t
  | R_report of Report.t
  | R_freq of Report.t * Pss_osc.t
  | R_mc of Monte_carlo.result
  | R_yield of Yield.result

(* [domains] sizes the sample lanes of the .mc and .yield cards; every
   other card runs on the calling domain.  [policy]/[budget] thread into
   the nonlinear engines (DC, transient, PSS, the mismatch analyses,
   Monte Carlo).  The LTI small-signal analyses (.ac, .noise, .dcmatch
   sensitivities) are single direct solves with no iteration to bound
   and stay untouched. *)
let execute ?(domains = 1) ?(steps = 200) ?(f_offset = 1.0) ?policy ?budget
    (deck : Spice_elab.t) analysis =
  Obs.span (span_name analysis) @@ fun () ->
  Obs.count "spice.analyses" 1;
  let circuit = deck.Spice_elab.circuit in
  match analysis with
  | Spice_ast.A_op -> R_op (Dc.solve ?policy ?budget circuit)
  | Spice_ast.A_dc_match { output } -> R_dc_match (Sens.dc_match circuit ~output)
  | Spice_ast.A_tran { dt; tstop; nodes } ->
    let w = Tran.run ?policy ?budget circuit ~tstart:0.0 ~tstop ~dt () in
    let nodes =
      match nodes with
      | [] ->
        List.init (Circuit.num_nodes circuit) (fun i ->
            Circuit.node_name circuit (i + 1))
      | ns -> ns
    in
    R_tran (w, nodes)
  | Spice_ast.A_ac { freqs; input; output } ->
    let ac = Ac.prepare circuit in
    R_ac
      (List.map
         (fun f -> (f, Ac.transfer ac ~freq:f ~input:(Ac.Vsource input) ~output))
         freqs)
  | Spice_ast.A_noise { output; freqs } ->
    R_noise
      (Noise_lti.analyze circuit ~output ~freqs:(Array.of_list freqs))
  | Spice_ast.A_pss { period } ->
    R_pss (Pss.solve ~steps ?policy ?budget circuit ~period)
  | Spice_ast.A_mismatch_dc { output; period } ->
    let ctx =
      Analysis.prepare ~steps ~f_offset ?policy ?budget circuit ~period
    in
    R_report (Analysis.dc_variation ctx ~output)
  | Spice_ast.A_mismatch_delay { output; period; threshold; after; rising } ->
    let ctx =
      Analysis.prepare ~steps ~f_offset ?policy ?budget circuit ~period
    in
    let crossing =
      {
        Analysis.edge = (if rising then Waveform.Rising else Waveform.Falling);
        threshold;
        after;
      }
    in
    R_report (Analysis.delay_variation ctx ~output ~crossing)
  | Spice_ast.A_mismatch_freq { anchor; f_guess } ->
    let rep, osc =
      Analysis.frequency_variation ~steps ?policy ?budget circuit ~anchor
        ~f_guess
    in
    R_freq (rep, osc)
  | Spice_ast.A_monte_carlo { n; seed } ->
    (* generic Monte Carlo over all node voltages at the DC point *)
    R_mc
      (Monte_carlo.run ~seed ~domains ?budget ~n ~circuit
         ~measure:(fun c ->
           let x = Dc.solve ?policy c in
           Array.init (Circuit.num_nodes c) (fun i -> x.(i)))
         ())
  | Spice_ast.A_yield
      { output; above; below; n; seed; batch; target_fom; scale; divergence;
        shift } ->
    let spec =
      match Spec.make ?below ?above () with
      | Ok s -> s
      | Error msg -> invalid_arg (".yield: " ^ msg)
    in
    (* the nominal operating point is both the linearization point of
       the shift model and the warm start of every sample's solve —
       the warm start keeps multi-stable cells (SRAM, latches) on the
       nominal equilibrium branch across mismatch perturbations *)
    let x_op = Dc.solve ?policy ?budget circuit in
    let nominal = Circuit.voltage circuit x_op output in
    let model =
      Yield.model_of_sens
        ~metric:(Printf.sprintf "v(%s)" output)
        ~nominal circuit
        (Sens.sensitivities ~x_op circuit ~output)
    in
    let shift_v =
      if shift then Some (Yield.shift_of_model ~scale model ~spec) else None
    in
    let measure c = Circuit.voltage c (Dc.solve ?policy ~x0:x_op c) output in
    let r =
      Yield.estimate ~seed ~domains ~batch ~target_fom ?budget ?shift:shift_v
        ~linear:model ~divergence_factor:divergence ~n ~spec ~circuit ~measure
        ()
    in
    (* a budget-truncated population is a typed partial result at the
       library level, but here it must raise: the budget is not part of
       the job fingerprint, so partial bytes must never reach the
       result cache as if they were the full analysis *)
    (match r.Yield.status, budget with
     | Yield.Budget_expired, Some b -> raise (Budget.Timed_out (Budget.info b))
     | _ -> ());
    R_yield r

let render ppf (deck : Spice_elab.t) analysis result =
  let circuit = deck.Spice_elab.circuit in
  match analysis, result with
  | Spice_ast.A_op, R_op x ->
    Format.fprintf ppf "@[<v>.op operating point:@,";
    for id = 1 to Circuit.num_nodes circuit do
      Format.fprintf ppf "  v(%s) = %.6g@," (Circuit.node_name circuit id)
        x.(id - 1)
    done;
    Format.fprintf ppf "@]@."
  | Spice_ast.A_dc_match _, R_dc_match rep ->
    Format.fprintf ppf "%a@." Sens.pp_report rep
  | Spice_ast.A_tran _, R_tran (w, nodes) ->
    Format.fprintf ppf "%s@." (Waveform.to_csv w ~nodes)
  | Spice_ast.A_ac { input; output; _ }, R_ac points ->
    Format.fprintf ppf "@[<v>.ac %s -> %s:@," input output;
    List.iter
      (fun (f, tf) ->
        Format.fprintf ppf "  %12.6g Hz  |H| = %10.6g  phase = %+8.2f deg@," f
          (Cx.abs tf)
          (Cx.arg tf *. 180.0 /. Float.pi))
      points;
    Format.fprintf ppf "@]@."
  | Spice_ast.A_noise { output; _ }, R_noise points ->
    Format.fprintf ppf "@[<v>.noise at %s:@," output;
    Array.iter
      (fun (pt : Noise_lti.point) ->
        Format.fprintf ppf "  %12.6g Hz  %.6g V^2/Hz@," pt.Noise_lti.freq
          pt.Noise_lti.total_psd)
      points;
    Format.fprintf ppf "@]@."
  | Spice_ast.A_pss _, R_pss pss ->
    Format.fprintf ppf
      ".pss: converged in %d shooting iterations, residual %.3g@."
      pss.Pss.iterations pss.Pss.residual;
    for id = 1 to Circuit.num_nodes circuit do
      let name = Circuit.node_name circuit id in
      let samples = Pss.node_samples pss name in
      let lo = Array.fold_left Float.min samples.(0) samples in
      let hi = Array.fold_left Float.max samples.(0) samples in
      Format.fprintf ppf "  %s: [%.4g, %.4g], fundamental amplitude %.4g@." name
        lo hi (Pss.amplitude pss name)
    done
  | Spice_ast.A_mismatch_dc _, R_report rep
  | Spice_ast.A_mismatch_delay _, R_report rep ->
    Format.fprintf ppf "%a@." Report.pp rep
  | Spice_ast.A_mismatch_freq _, R_freq (rep, osc) ->
    Format.fprintf ppf "oscillator frequency: %.6g Hz@."
      osc.Pss_osc.frequency;
    Format.fprintf ppf "%a@." Report.pp rep
  | Spice_ast.A_monte_carlo { n; _ }, R_mc mc ->
    if mc.Monte_carlo.timed_out then
      Format.fprintf ppf
        ".mc: budget expired, %d of %d samples completed@."
        (Array.length mc.Monte_carlo.values)
        n;
    Format.fprintf ppf "@[<v>.mc (n=%d) node voltage statistics:@," n;
    Array.iteri
      (fun i (s : Stats.summary) ->
        Format.fprintf ppf "  v(%s): mean %.6g sigma %.4g@,"
          (Circuit.node_name circuit (i + 1))
          s.Stats.mean s.Stats.std_dev)
      mc.Monte_carlo.summaries;
    Format.fprintf ppf "@]@."
  | Spice_ast.A_yield { output; _ }, R_yield r ->
    Format.fprintf ppf ".yield v(%s):@.%s" output (Yield.render r)
  | _ -> invalid_arg "Spice_run.render: result does not match the analysis"

let run_analysis ?domains ?steps ?f_offset ?policy ?budget ppf
    (deck : Spice_elab.t) analysis =
  render ppf deck analysis
    (execute ?domains ?steps ?f_offset ?policy ?budget deck analysis)

let run ?domains ?steps ?f_offset ?policy ?budget ppf deck =
  if deck.Spice_elab.title <> "" then
    Format.fprintf ppf "* %s@.@." deck.Spice_elab.title;
  (* end-of-run degradation summary: sample this domain's fallback
     counters around the whole deck so a run that silently leaned on
     the dense backend says so in its own output (not only as a
     point-of-fallback stderr warning) — and so sweep workers can read
     a per-point degraded count off the same counters for free *)
  let d0 = Linsys.degradation_count () in
  let k0 = Linsys.krylov_fallback_count () in
  (match deck.Spice_elab.analyses with
   | [] ->
     run_analysis ?domains ?steps ?f_offset ?policy ?budget ppf deck
       Spice_ast.A_op
   | analyses ->
     List.iter
       (fun (_ln, a) ->
         run_analysis ?domains ?steps ?f_offset ?policy ?budget ppf deck a)
       analyses);
  let degradations = Linsys.degradation_count () - d0 in
  let krylov_fallbacks = Linsys.krylov_fallback_count () - k0 in
  if degradations > 0 || krylov_fallbacks > 0 then
    Format.fprintf ppf
      "resilience summary: %d sparse->dense degradation(s), %d krylov \
       fallback(s)@."
      degradations krylov_fallbacks
