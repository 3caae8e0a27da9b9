(* AC, LTI noise, and DC sensitivity/match analysis validated against
   closed-form answers. *)

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let boltzmann = 1.380649e-23

(* ------------------------------------------------------------------- AC *)

let rc_lowpass () =
  let b = Builder.create () in
  Builder.vsource b "VIN" "in" "0" (Wave.Dc 0.0);
  Builder.resistor b "R1" "in" "out" 1e3;
  Builder.capacitor b "C1" "out" "0" 1e-9;
  Builder.finish b

let test_ac_rc_transfer () =
  let c = rc_lowpass () in
  let ac = Ac.prepare c in
  let fpole = 1.0 /. (2.0 *. Float.pi *. 1e3 *. 1e-9) in
  List.iter
    (fun f ->
      let tf = Ac.transfer ac ~freq:f ~input:(Ac.Vsource "VIN") ~output:"out" in
      let expected = Cx.( /: ) Cx.one (Cx.mk 1.0 (f /. fpole)) in
      Alcotest.(check bool)
        (Printf.sprintf "H at %g Hz" f)
        true
        (Cx.close ~tol:1e-9 tf expected))
    [ 1.0; fpole /. 10.0; fpole; fpole *. 10.0; fpole *. 1000.0 ]

let test_ac_output_impedance () =
  let c = rc_lowpass () in
  let ac = Ac.prepare c in
  (* at DC the cap is open and the source shorts: Z = R *)
  let z = Ac.output_impedance ac ~freq:1e-3 ~node:"out" in
  Alcotest.(check bool) "Zout ~ R" true (Float.abs (z.Cx.re -. 1e3) < 1.0)

let test_ac_adjoint_consistency () =
  (* λᵀ·b must equal the direct transfer for arbitrary injections *)
  let c = rc_lowpass () in
  let ac = Ac.prepare c in
  let freq = 2.5e5 in
  let lambda = Ac.adjoint ac ~freq ~output:"out" in
  let row = Circuit.node_row c "out" in
  let inj = [ (row, 1.0) ] in
  let direct = Ac.solve ac ~freq ~input:(Ac.Injection inj) in
  let via_adjoint = Cvec.get lambda row in
  Alcotest.(check bool) "adjoint = direct" true
    (Cx.close ~tol:1e-10 (Cvec.get direct row) via_adjoint)

let test_ac_common_source_gain () =
  (* common-source amp: |gain| = gm*(ro || RL) at low frequency *)
  let b = Builder.create () in
  Builder.vdc b "VDD" "vdd" "0" 1.2;
  Builder.vsource b "VIN" "in" "0" (Wave.Dc 0.6);
  Builder.resistor b "RL" "vdd" "out" 10e3;
  Builder.mosfet b "M1" ~d:"out" ~g:"in" ~s:"0" ~model:Mosfet.nmos_013 ~w:2e-6
    ~l:0.13e-6 ();
  let c = Builder.finish b in
  let ac = Ac.prepare c in
  let x = Ac.operating_point ac in
  let vout = Circuit.voltage c x "out" in
  let op =
    Mosfet.eval Mosfet.nmos_013 ~w:2e-6 ~l:0.13e-6 ~dvt:0.0 ~dbeta:0.0 ~vd:vout
      ~vg:0.6 ~vs:0.0
  in
  let gm = op.Mosfet.gg and gds = op.Mosfet.gd in
  let expected = -.gm /. (gds +. 1e-4) in
  let tf = Ac.transfer ac ~freq:1.0 ~input:(Ac.Vsource "VIN") ~output:"out" in
  Alcotest.(check bool)
    (Printf.sprintf "gain %.3f vs expected %.3f" tf.Cx.re expected)
    true
    (Float.abs (tf.Cx.re -. expected) < 0.02 *. Float.abs expected)

(* ------------------------------------------------------------ LTI noise *)

let test_noise_resistor_divider () =
  (* two equal resistors to a mid node: output noise = 4kT·(R/2) *)
  let b = Builder.create () in
  Builder.vdc b "V1" "top" "0" 1.0;
  Builder.resistor b "R1" "top" "mid" 1e3;
  Builder.resistor b "R2" "mid" "0" 1e3;
  let c = Builder.finish b in
  let points = Noise_lti.analyze c ~output:"mid" ~freqs:[| 1.0 |] in
  let expected = 4.0 *. boltzmann *. 300.0 *. 500.0 in
  check_float ~eps:(expected *. 1e-6) "divider noise" expected
    points.(0).Noise_lti.total_psd

let test_noise_rc_filtered () =
  (* RC lowpass: S(f) = 4kTR/(1+(f/fp)^2); also check the integrated
     kT/C sanity at a few points *)
  let c = rc_lowpass () in
  let fpole = 1.0 /. (2.0 *. Float.pi *. 1e3 *. 1e-9) in
  let freqs = [| 1.0; fpole; 10.0 *. fpole |] in
  let points = Noise_lti.analyze c ~output:"out" ~freqs in
  let s0 = 4.0 *. boltzmann *. 300.0 *. 1e3 in
  check_float ~eps:(s0 *. 1e-6) "flat region" s0 points.(0).Noise_lti.total_psd;
  check_float ~eps:(s0 *. 1e-3) "at pole" (s0 /. 2.0) points.(1).Noise_lti.total_psd;
  check_float ~eps:(s0 *. 1e-3) "rolloff" (s0 /. 101.0) points.(2).Noise_lti.total_psd

let test_noise_custom_sources () =
  (* pseudo-noise current with PSD sigma^2 into R: output PSD = sigma^2 R^2 *)
  let b = Builder.create () in
  Builder.resistor b "R1" "out" "0" 2e3 (* noiseless path check uses custom *);
  let c = Builder.finish b in
  let row = Circuit.node_row c "out" in
  let sigma2 = 1e-12 in
  let point =
    Noise_lti.analyze_sources c ~output:"out" ~freq:1.0
      ~sources:[ ("pn", [ (row, 1.0) ], sigma2) ]
  in
  check_float ~eps:1e-12 "injected pseudo-noise" (sigma2 *. 4e6)
    point.Noise_lti.total_psd

(* ------------------------------------------------------ transient noise *)

let test_tran_noise_ktc () =
  (* stochastic validation of the whole noise chain: the stationary
     variance of an RC node driven by resistor thermal noise is kT/C *)
  let r = 1e3 and cap = 1e-12 in
  let b = Builder.create () in
  Builder.vdc b "V1" "in" "0" 0.0;
  Builder.resistor b "R1" "in" "out" r;
  Builder.capacitor b "C1" "out" "0" cap;
  let c = Builder.finish b in
  let tau = r *. cap in
  let var =
    Tran_noise.node_stationary_variance ~seed:7 c ~node:"out"
      ~tstop:(400.0 *. tau) ~dt:(tau /. 20.0) ~settle:(10.0 *. tau)
  in
  let expected = boltzmann *. 300.0 /. cap in
  Alcotest.(check bool)
    (Printf.sprintf "kT/C: got %.3g expected %.3g" var expected)
    true
    (Float.abs (var -. expected) < 0.35 *. expected)

let test_tran_noise_deterministic () =
  let b = Builder.create () in
  Builder.vdc b "V1" "in" "0" 1.0;
  Builder.resistor b "R1" "in" "out" 1e3;
  Builder.capacitor b "C1" "out" "0" 1e-12;
  let c = Builder.finish b in
  let run () =
    let w = Tran_noise.run ~seed:3 c ~tstart:0.0 ~tstop:10e-9 ~dt:0.1e-9 () in
    Waveform.final w "out"
  in
  Alcotest.(check (float 0.0)) "same seed, same path" (run ()) (run ())

(* --------------------------------------------------- DC sens / DC match *)

let divider_with_tol () =
  let b = Builder.create () in
  Builder.vdc b "V1" "in" "0" 2.0;
  Builder.resistor ~tol:0.01 b "R1" "in" "out" 1e3;
  Builder.resistor ~tol:0.01 b "R2" "out" "0" 1e3;
  Builder.finish b

let test_sens_divider () =
  (* V_out = V·R2/(R1+R2); with relative deviations:
     dV/d(δ1) = -V·R1R2/(R1+R2)^2 = -0.5, dV/d(δ2) = +0.5 *)
  let c = divider_with_tol () in
  let sens = Sens.sensitivities c ~output:"out" in
  Alcotest.(check int) "two params" 2 (Array.length sens);
  Array.iter
    (fun ((p : Circuit.mismatch_param), s) ->
      let expected = if p.Circuit.device_name = "R1" then -0.5 else 0.5 in
      check_float ~eps:1e-6 (p.Circuit.device_name ^ " sensitivity") expected s)
    sens

let test_dc_match_divider () =
  (* sigma_out = sqrt(2)·0.5·1%·2V = 14.14 mV *)
  let c = divider_with_tol () in
  let report = Sens.dc_match c ~output:"out" in
  check_float ~eps:1e-6 "divider dc match" (sqrt 2.0 *. 0.5 *. 0.01)
    report.Sens.sigma;
  Alcotest.(check int) "breakdown size" 2 (Array.length report.Sens.contributions);
  (* shares should be equal *)
  let c0 = report.Sens.contributions.(0) in
  check_float ~eps:1e-9 "equal shares" 0.5
    (c0.Sens.variance_share /. (report.Sens.sigma *. report.Sens.sigma))

let test_dc_match_vs_mc () =
  (* linear DC match must agree with Monte Carlo on the divider *)
  let c = divider_with_tol () in
  let report = Sens.dc_match c ~output:"out" in
  let mc =
    Monte_carlo.run_scalar ~seed:11 ~n:3000 ~circuit:c
      ~measure:(fun c' ->
        let x = Dc.solve c' in
        Circuit.voltage c' x "out")
      ()
  in
  let mc_sigma = mc.Monte_carlo.summaries.(0).Stats.std_dev in
  Alcotest.(check bool)
    (Printf.sprintf "linear %.4g vs MC %.4g" report.Sens.sigma mc_sigma)
    true
    (Float.abs (report.Sens.sigma -. mc_sigma) < 0.05 *. mc_sigma);
  Alcotest.(check int) "no failures" 0 mc.Monte_carlo.failed

let test_dc_match_comparator_pair_dominates () =
  (* DC match on a simple differential pair: the input pair must carry
     most of the offset variance when the load is ideal *)
  let b = Builder.create () in
  Builder.vdc b "VDD" "vdd" "0" 1.2;
  Builder.vdc b "VBIAS" "bias" "0" 0.6;
  Builder.isource b "IT" "tail" "0" (Wave.Dc 200e-6);
  Builder.mosfet b "M1" ~d:"o1" ~g:"bias" ~s:"tail" ~model:Mosfet.nmos_013
    ~w:4e-6 ~l:0.13e-6 ();
  Builder.mosfet b "M2" ~d:"o2" ~g:"bias" ~s:"tail" ~model:Mosfet.nmos_013
    ~w:4e-6 ~l:0.13e-6 ();
  Builder.resistor b "RL1" "vdd" "o1" 5e3;
  Builder.resistor b "RL2" "vdd" "o2" 5e3;
  let c = Builder.finish b in
  let report = Sens.dc_match c ~output:"o1" in
  Alcotest.(check bool) "nonzero sigma" true (report.Sens.sigma > 1e-4);
  (* top contributor must be M1 (only its branch feeds o1 directly) *)
  let top = report.Sens.contributions.(0) in
  Alcotest.(check bool) "M1 dominates" true
    (top.Sens.param.Circuit.device_name = "M1")

(* ------------------------------------------------------- Monte Carlo *)

let test_mc_determinism () =
  let c = divider_with_tol () in
  let run () =
    Monte_carlo.run_scalar ~seed:5 ~n:50 ~circuit:c
      ~measure:(fun c' ->
        let x = Dc.solve c' in
        Circuit.voltage c' x "out")
      ()
  in
  let a = run () and b = run () in
  check_float "same mean" a.Monte_carlo.summaries.(0).Stats.mean
    b.Monte_carlo.summaries.(0).Stats.mean

let test_mc_parallel_deterministic () =
  (* domain count must not change the sample stream *)
  let c = divider_with_tol () in
  let measure c' =
    let x = Dc.solve c' in
    Circuit.voltage c' x "out"
  in
  let seq = Monte_carlo.run_scalar ~seed:5 ~domains:1 ~n:200 ~circuit:c ~measure () in
  let par = Monte_carlo.run_scalar ~seed:5 ~domains:4 ~n:200 ~circuit:c ~measure () in
  Alcotest.(check (float 0.0)) "identical means"
    seq.Monte_carlo.summaries.(0).Stats.mean
    par.Monte_carlo.summaries.(0).Stats.mean;
  Alcotest.(check (float 0.0)) "identical sigmas"
    seq.Monte_carlo.summaries.(0).Stats.std_dev
    par.Monte_carlo.summaries.(0).Stats.std_dev

let test_mc_correlated_transform () =
  (* perfectly correlated resistor deviations cancel in the divider:
     the output sigma collapses relative to the independent case *)
  let c = divider_with_tol () in
  let params = Circuit.mismatch_params c in
  let n = Array.length params in
  let rho_perfect = Mat.init n n (fun _ _ -> 1.0) in
  let measure c' =
    let x = Dc.solve c' in
    Circuit.voltage c' x "out"
  in
  let independent =
    Monte_carlo.run_scalar ~seed:21 ~n:1500 ~circuit:c ~measure ()
  in
  let correlated =
    Monte_carlo.run_scalar ~seed:21 ~n:1500 ~circuit:c
      ~transform:(Correlated.mismatch_transform params ~rho:rho_perfect)
      ~measure ()
  in
  let s_ind = independent.Monte_carlo.summaries.(0).Stats.std_dev in
  let s_cor = correlated.Monte_carlo.summaries.(0).Stats.std_dev in
  Alcotest.(check bool)
    (Printf.sprintf "common-mode rejection: %.4g -> %.4g" s_ind s_cor)
    true
    (s_cor < 0.05 *. s_ind)

let test_mc_multi_output_correlation () =
  (* taps of a 3-resistor string: adjacent taps strongly correlated *)
  let b = Builder.create () in
  Builder.vdc b "V1" "top" "0" 3.0;
  Builder.resistor ~tol:0.05 b "R1" "top" "t2" 1e3;
  Builder.resistor ~tol:0.05 b "R2" "t2" "t1" 1e3;
  Builder.resistor ~tol:0.05 b "R3" "t1" "0" 1e3;
  let c = Builder.finish b in
  let mc =
    Monte_carlo.run ~seed:3 ~n:2000 ~circuit:c
      ~measure:(fun c' ->
        let x = Dc.solve c' in
        [| Circuit.voltage c' x "t1"; Circuit.voltage c' x "t2" |])
      ()
  in
  let t1 = Monte_carlo.samples_of mc 0 and t2 = Monte_carlo.samples_of mc 1 in
  let rho = Stats.correlation t1 t2 in
  Alcotest.(check bool)
    (Printf.sprintf "tap correlation %.3f in (0.3, 0.9)" rho)
    true
    (rho > 0.3 && rho < 0.9)

let () =
  Alcotest.run "ac_noise"
    [
      ( "ac",
        [
          Alcotest.test_case "rc transfer" `Quick test_ac_rc_transfer;
          Alcotest.test_case "output impedance" `Quick test_ac_output_impedance;
          Alcotest.test_case "adjoint consistency" `Quick
            test_ac_adjoint_consistency;
          Alcotest.test_case "common source gain" `Quick
            test_ac_common_source_gain;
        ] );
      ( "noise",
        [
          Alcotest.test_case "resistor divider" `Quick test_noise_resistor_divider;
          Alcotest.test_case "rc filtered" `Quick test_noise_rc_filtered;
          Alcotest.test_case "custom sources" `Quick test_noise_custom_sources;
        ] );
      ( "transient noise",
        [
          Alcotest.test_case "kT/C" `Slow test_tran_noise_ktc;
          Alcotest.test_case "deterministic" `Quick test_tran_noise_deterministic;
        ] );
      ( "dc match",
        [
          Alcotest.test_case "sensitivities" `Quick test_sens_divider;
          Alcotest.test_case "divider sigma" `Quick test_dc_match_divider;
          Alcotest.test_case "matches MC" `Slow test_dc_match_vs_mc;
          Alcotest.test_case "diff pair breakdown" `Quick
            test_dc_match_comparator_pair_dominates;
        ] );
      ( "monte carlo",
        [
          Alcotest.test_case "determinism" `Quick test_mc_determinism;
          Alcotest.test_case "parallel determinism" `Quick
            test_mc_parallel_deterministic;
          Alcotest.test_case "correlated transform (eq 6)" `Slow
            test_mc_correlated_transform;
          Alcotest.test_case "multi-output correlation" `Slow
            test_mc_multi_output_correlation;
        ] );
    ]
