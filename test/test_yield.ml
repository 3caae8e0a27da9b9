(* Yield / importance-sampling estimator properties (lib/yield):
   bit-identical plain-MC equivalence on common random numbers,
   unbiasedness of the weighted estimator against brute-force MC,
   FOM stopping discipline, budget degradation, domain invariance,
   and the linear-vs-measured divergence diagnostic. *)

let check_exact msg a b = Alcotest.(check (float 0.0)) msg a b

(* cheap analytic workhorse: a two-resistor divider whose output moves
   near-linearly with the relative resistor mismatch (5 % sigma each) *)
let divider () =
  let b = Builder.create () in
  Builder.vdc b "VDD" "vdd" "0" 1.2;
  Builder.resistor ~tol:0.05 b "R1" "vdd" "out" 10e3;
  Builder.resistor ~tol:0.05 b "R2" "out" "0" 10e3;
  Builder.finish b

let v_out circuit = Circuit.voltage circuit (Dc.solve circuit) "out"

let spec_above v =
  match Spec.make ~above:v () with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let divider_model circuit =
  let x_op = Dc.solve circuit in
  Yield.model_of_sens ~metric:"v(out)"
    ~nominal:(Circuit.voltage circuit x_op "out")
    circuit
    (Sens.sensitivities ~x_op circuit ~output:"out")

(* ---------------------------------------------------- zero-shift = MC *)

(* A zero shift must leave the sample stream, the weights, and every
   derived statistic bit-identical to plain Monte Carlo: the likelihood
   ratio is exactly 1.0 and the transform adds nothing. *)
let test_zero_shift_is_plain_mc () =
  let circuit = divider () in
  let spec = spec_above 0.63 in
  let n_params = Array.length (Circuit.mismatch_params circuit) in
  let run shift =
    Yield.estimate ~seed:7 ~batch:32 ~target_fom:0.05 ?shift ~n:512 ~spec
      ~circuit ~measure:v_out ()
  in
  let plain = run None in
  let zero = run (Some (Yield.zero_shift n_params)) in
  check_exact "p_fail" plain.Yield.p_fail zero.Yield.p_fail;
  check_exact "ci_lo" plain.Yield.ci_lo zero.Yield.ci_lo;
  check_exact "ci_hi" plain.Yield.ci_hi zero.Yield.ci_hi;
  check_exact "fom" plain.Yield.fom zero.Yield.fom;
  check_exact "ess" plain.Yield.ess zero.Yield.ess;
  Alcotest.(check int) "samples" plain.Yield.samples zero.Yield.samples;
  Alcotest.(check int) "hits" plain.Yield.hits zero.Yield.hits;
  (* unweighted: every sample counts fully *)
  check_exact "ess = samples" (float_of_int plain.Yield.samples)
    plain.Yield.ess;
  (* and the rendered report (which carries no wall time) matches too *)
  Alcotest.(check string) "render"
    (Yield.render { plain with Yield.shift = None; seconds = 0.0 })
    (Yield.render { zero with Yield.shift = None; seconds = 0.0 })

let prop_zero_shift_qcheck =
  QCheck.Test.make ~count:10 ~name:"zero shift = plain MC for any seed"
    QCheck.(small_int)
    (fun seed ->
      let circuit = divider () in
      let spec = spec_above 0.62 in
      let n_params = Array.length (Circuit.mismatch_params circuit) in
      let run shift =
        Yield.estimate ~seed ~batch:16 ~target_fom:0.3 ?shift ~n:64 ~spec
          ~circuit ~measure:v_out ()
      in
      let plain = run None in
      let zero = run (Some (Yield.zero_shift n_params)) in
      plain.Yield.p_fail = zero.Yield.p_fail
      && plain.Yield.fom = zero.Yield.fom
      && plain.Yield.samples = zero.Yield.samples)

(* -------------------------------------------------------- unbiasedness *)

(* The importance-sampled estimate and a brute-force plain-MC estimate
   must agree within their (widened) confidence intervals. *)
let test_is_unbiased_vs_brute_force () =
  let circuit = divider () in
  let spec = spec_above 0.66 in
  let model = divider_model circuit in
  let shift = Yield.shift_of_model model ~spec in
  let is_r =
    Yield.estimate ~seed:3 ~batch:64 ~target_fom:0.08 ~shift ~linear:model
      ~n:20_000 ~spec ~circuit ~measure:v_out ()
  in
  let mc_r =
    Yield.estimate ~seed:1009 ~batch:4096 ~target_fom:0.08 ~n:2_000_000 ~spec
      ~circuit ~measure:v_out ()
  in
  Alcotest.(check bool) "IS converged" true (is_r.Yield.status = Yield.Converged);
  Alcotest.(check bool) "MC converged" true (mc_r.Yield.status = Yield.Converged);
  (* 3-sigma overlap band around the brute-force estimate *)
  let se_is = (is_r.Yield.ci_hi -. is_r.Yield.ci_lo) /. (2.0 *. 1.96) in
  let se_mc = (mc_r.Yield.ci_hi -. mc_r.Yield.ci_lo) /. (2.0 *. 1.96) in
  let gap = Float.abs (is_r.Yield.p_fail -. mc_r.Yield.p_fail) in
  let band = 3.0 *. sqrt ((se_is *. se_is) +. (se_mc *. se_mc)) in
  if gap > band then
    Alcotest.failf "IS %.4g vs MC %.4g: gap %.3g > 3-sigma band %.3g"
      is_r.Yield.p_fail mc_r.Yield.p_fail gap band;
  (* the near-linear divider must NOT trip the divergence diagnostic *)
  Alcotest.(check bool) "no divergence on linear circuit" false
    is_r.Yield.diverged;
  (* and the IS run must be meaningfully cheaper at equal fom *)
  Alcotest.(check bool) "IS cheaper than MC" true
    (is_r.Yield.samples * 5 <= mc_r.Yield.samples)

let prop_is_unbiased_qcheck =
  QCheck.Test.make ~count:6 ~name:"IS agrees with MC for any seed"
    QCheck.(small_int)
    (fun seed ->
      let circuit = divider () in
      let spec = spec_above 0.65 in
      let model = divider_model circuit in
      let shift = Yield.shift_of_model model ~spec in
      let is_r =
        Yield.estimate ~seed ~batch:64 ~target_fom:0.1 ~shift ~n:20_000 ~spec
          ~circuit ~measure:v_out ()
      in
      let mc_r =
        Yield.estimate ~seed:(seed + 100_003) ~batch:4096 ~target_fom:0.1
          ~n:1_000_000 ~spec ~circuit ~measure:v_out ()
      in
      let se_is = (is_r.Yield.ci_hi -. is_r.Yield.ci_lo) /. (2.0 *. 1.96) in
      let se_mc = (mc_r.Yield.ci_hi -. mc_r.Yield.ci_lo) /. (2.0 *. 1.96) in
      Float.abs (is_r.Yield.p_fail -. mc_r.Yield.p_fail)
      <= 4.0 *. sqrt ((se_is *. se_is) +. (se_mc *. se_mc)))

(* ------------------------------------------------------- FOM stopping *)

let test_fom_respects_target_and_cap () =
  let circuit = divider () in
  let spec = spec_above 0.64 in
  (* generous cap: must stop at the target, on a batch boundary *)
  let r =
    Yield.estimate ~seed:5 ~batch:32 ~target_fom:0.25 ~n:100_000 ~spec
      ~circuit ~measure:v_out ()
  in
  Alcotest.(check bool) "converged" true (r.Yield.status = Yield.Converged);
  Alcotest.(check bool) "fom at or under target" true (r.Yield.fom <= 0.25);
  Alcotest.(check int) "stopped on a batch boundary" 0 (r.Yield.samples mod 32);
  Alcotest.(check bool) "did not run to the cap" true (r.Yield.samples < 100_000);
  (* tiny cap: must stop at n with the fom still above target *)
  let capped =
    Yield.estimate ~seed:5 ~batch:32 ~target_fom:0.0001 ~n:96 ~spec ~circuit
      ~measure:v_out ()
  in
  Alcotest.(check bool) "capped" true (capped.Yield.status = Yield.Capped);
  Alcotest.(check int) "measured exactly n" 96 capped.Yield.samples;
  Alcotest.(check bool) "fom above target" true (capped.Yield.fom > 0.0001)

let prop_fom_qcheck =
  QCheck.Test.make ~count:10 ~name:"fom rule: converged <= target, capped = n"
    QCheck.(pair small_int (int_range 1 8))
    (fun (seed, batches) ->
      let circuit = divider () in
      let spec = spec_above 0.62 in
      let n = 16 * batches in
      let r =
        Yield.estimate ~seed ~batch:16 ~target_fom:0.15 ~n ~spec ~circuit
          ~measure:v_out ()
      in
      match r.Yield.status with
      | Yield.Converged -> r.Yield.fom <= 0.15 && r.Yield.samples <= n
      | Yield.Capped -> r.Yield.samples = n
      | Yield.Budget_expired -> false (* no budget was set *))

(* ------------------------------------------------------ budget expiry *)

(* An expired budget must produce a typed partial result promptly --
   never an exception, never a hang. *)
let test_budget_expiry_partial () =
  let circuit = divider () in
  let spec = spec_above 0.64 in
  let budget = Budget.make ~wall_s:0.0 ~label:"yield test" () in
  let t0 = Unix.gettimeofday () in
  let r =
    Yield.estimate ~seed:11 ~batch:64 ~budget ~n:1_000_000 ~spec ~circuit
      ~measure:v_out ()
  in
  Alcotest.(check bool) "typed partial" true
    (r.Yield.status = Yield.Budget_expired);
  Alcotest.(check bool) "returned promptly" true
    (Unix.gettimeofday () -. t0 < 10.0);
  Alcotest.(check bool) "partial population" true (r.Yield.samples < 1_000_000)

(* The spice card layer must surface the same condition as a typed
   Budget.Timed_out instead of returning (and potentially caching) a
   partial result. *)
let test_spice_card_budget_raises () =
  let deck =
    Spice_elab.load_string
      "divider\n\
       VDD vdd 0 1.2\n\
       R1 vdd out 10k tol=0.05\n\
       R2 out 0 10k tol=0.05\n\
       .yield out above=0.64 n=100000 fom=0.0001\n\
       .end\n"
  in
  let card =
    match deck.Spice_elab.analyses with
    | [ (_, a) ] -> a
    | _ -> Alcotest.fail "expected one analysis card"
  in
  let budget = Budget.make ~wall_s:0.0 ~label:"yield card" () in
  match Spice_run.execute ~budget deck card with
  | _ -> Alcotest.fail "expected Budget.Timed_out"
  | exception Budget.Timed_out _ -> ()

(* --------------------------------------------------- domain invariance *)

let test_domains_invariant () =
  let circuit = divider () in
  let spec = spec_above 0.65 in
  let model = divider_model circuit in
  let shift = Yield.shift_of_model model ~spec in
  let run domains =
    Yield.estimate ~seed:21 ~domains ~batch:64 ~target_fom:0.15 ~shift
      ~linear:model ~n:50_000 ~spec ~circuit ~measure:v_out ()
  in
  let r1 = run 1 and r2 = run 2 and r4 = run 4 in
  List.iter
    (fun (label, r) ->
      check_exact (label ^ " p_fail") r1.Yield.p_fail r.Yield.p_fail;
      check_exact (label ^ " fom") r1.Yield.fom r.Yield.fom;
      check_exact (label ^ " ess") r1.Yield.ess r.Yield.ess;
      Alcotest.(check int) (label ^ " samples") r1.Yield.samples
        r.Yield.samples;
      Alcotest.(check string) (label ^ " render")
        (Yield.render { r1 with Yield.seconds = 0.0 })
        (Yield.render { r with Yield.seconds = 0.0 }))
    [ ("domains=2", r2); ("domains=4", r4) ]

(* ---------------------------------------------- divergence diagnostic *)

let test_divergence_flag () =
  let circuit = divider () in
  let spec = spec_above 0.65 in
  let model = divider_model circuit in
  (* a deliberately wrong linear model (sigma 10x too small) predicts an
     astronomically rarer tail: the flag must fire *)
  let wrong =
    { model with Yield.sigma = model.Yield.sigma /. 10.0;
      weighted = Array.map (fun w -> w /. 10.0) model.Yield.weighted }
  in
  let shift = Yield.shift_of_model model ~spec in
  let flagged =
    Yield.estimate ~seed:2 ~batch:64 ~target_fom:0.1 ~shift ~linear:wrong
      ~n:50_000 ~spec ~circuit ~measure:v_out ()
  in
  Alcotest.(check bool) "wrong model flagged" true flagged.Yield.diverged;
  (* the honest model on the near-linear divider must not fire *)
  let ok =
    Yield.estimate ~seed:2 ~batch:64 ~target_fom:0.1 ~shift ~linear:model
      ~n:50_000 ~spec ~circuit ~measure:v_out ()
  in
  Alcotest.(check bool) "honest model unflagged" false ok.Yield.diverged;
  (* the ratio diagnostic is populated when both tails are positive *)
  (match ok.Yield.p_linear, ok.Yield.divergence with
   | Some pl, Some ratio when pl > 0.0 ->
     check_exact "ratio = p/p_linear" (ok.Yield.p_fail /. pl) ratio
   | _ -> Alcotest.fail "expected linear tail and ratio")

(* ------------------------------------------------------ shift geometry *)

let test_shift_construction () =
  let circuit = divider () in
  let model = divider_model circuit in
  let spec = spec_above 0.66 in
  let s = Yield.shift_of_model model ~spec in
  (* unit direction, beta = distance to bound in linear sigma *)
  let norm =
    sqrt (Array.fold_left (fun a x -> a +. (x *. x)) 0.0 s.Yield.direction)
  in
  Alcotest.(check (float 1e-12)) "unit direction" 1.0 norm;
  Alcotest.(check (float 1e-12)) "beta"
    ((0.66 -. model.Yield.nominal) /. model.Yield.sigma)
    s.Yield.beta;
  (* scale multiplies beta, leaves the direction alone *)
  let s2 = Yield.shift_of_model ~scale:0.5 model ~spec in
  Alcotest.(check (float 1e-12)) "scaled beta" (s.Yield.beta /. 2.0)
    s2.Yield.beta;
  (* an absurdly far bound clamps instead of underflowing the weights *)
  let far = Yield.shift_of_model model ~spec:(spec_above 100.0) in
  Alcotest.(check (float 0.0)) "beta clamp" 6.0 far.Yield.beta;
  (* a zero-sigma model degenerates to the identity shift *)
  let flat = { model with Yield.sigma = 0.0 } in
  let z = Yield.shift_of_model flat ~spec in
  Alcotest.(check (float 0.0)) "zero beta" 0.0 z.Yield.beta

(* a probe-fitted gradient agrees with the adjoint one on the divider *)
let test_probe_model_matches_sens () =
  let circuit = divider () in
  let adjoint = divider_model circuit in
  let probed =
    Yield.probe_model ~seed:17 ~samples:24 ~metric:"v(out)" ~circuit
      ~measure:v_out ()
  in
  Alcotest.(check (float 1e-3)) "nominal" adjoint.Yield.nominal
    probed.Yield.nominal;
  (* 5 % relative agreement is plenty: the probe fits a secant gradient
     over finite 5 %-sigma draws of a mildly nonlinear divider *)
  Alcotest.(check bool) "sigma within 5%" true
    (Float.abs (probed.Yield.sigma -. adjoint.Yield.sigma)
     <= 0.05 *. adjoint.Yield.sigma)

(* ------------------------------------------------------ exact bit pin *)

(* The CI yield smoke (varsim yield decks/sram_read.sp -o q --above 0.6
   -n 4096 --fom 0.3 --scale 0.25), spelled out as Spice_run's .yield
   path: P_fail's IEEE-754 bits were recorded before Lu and the stamp
   sinks indexed their float arrays directly, and must not move. *)
let test_sram_smoke_bits () =
  let circuit =
    (Spice_elab.load_file "../decks/sram_read.sp").Spice_elab.circuit
  in
  let x_op = Dc.solve circuit in
  let model =
    Yield.model_of_sens ~metric:"v(q)"
      ~nominal:(Circuit.voltage circuit x_op "q")
      circuit
      (Sens.sensitivities ~x_op circuit ~output:"q")
  in
  let spec = spec_above 0.6 in
  let shift = Yield.shift_of_model ~scale:0.25 model ~spec in
  let measure c = Circuit.voltage c (Dc.solve ~x0:x_op c) "q" in
  let r =
    Yield.estimate ~seed:42 ~batch:64 ~target_fom:0.3 ~shift ~linear:model
      ~n:4096 ~spec ~circuit ~measure ()
  in
  Alcotest.(check int64) "P_fail bits" 0x3f08771906208793L
    (Int64.bits_of_float r.Yield.p_fail);
  Alcotest.(check int) "samples" 704 r.Yield.samples;
  Alcotest.(check int) "batches" 11 r.Yield.batches

let () =
  Alcotest.run "yield"
    [
      ( "estimator",
        [
          Alcotest.test_case "zero shift = plain MC" `Quick
            test_zero_shift_is_plain_mc;
          QCheck_alcotest.to_alcotest prop_zero_shift_qcheck;
          Alcotest.test_case "unbiased vs brute force" `Quick
            test_is_unbiased_vs_brute_force;
          QCheck_alcotest.to_alcotest prop_is_unbiased_qcheck;
        ] );
      ( "stopping",
        [
          Alcotest.test_case "fom target and cap" `Quick
            test_fom_respects_target_and_cap;
          QCheck_alcotest.to_alcotest prop_fom_qcheck;
          Alcotest.test_case "budget expiry" `Quick test_budget_expiry_partial;
          Alcotest.test_case "spice card raises on expiry" `Quick
            test_spice_card_budget_raises;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "domains invariant" `Quick test_domains_invariant;
          Alcotest.test_case "sram smoke P_fail bits" `Quick
            test_sram_smoke_bits;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "divergence flag" `Quick test_divergence_flag;
          Alcotest.test_case "shift geometry" `Quick test_shift_construction;
          Alcotest.test_case "probe model" `Quick test_probe_model_matches_sens;
        ] );
    ]
