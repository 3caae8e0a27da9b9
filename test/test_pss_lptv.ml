(* Validation of the RF-simulator core: periodic steady state by
   shooting, the LPTV periodic small-signal BVP (direct and adjoint),
   and the oscillator machinery. *)

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* ------------------------------------------------------------------ PSS *)

let driven_rc ~freq =
  let b = Builder.create () in
  Builder.vsource b "VIN" "in" "0"
    (Wave.Sin { Wave.offset = 0.5; ampl = 0.2; freq; phase_deg = 0.0 });
  Builder.resistor b "R1" "in" "out" 1e3;
  Builder.capacitor b "C1" "out" "0" 159.155e-12 (* pole at 1 MHz *);
  Builder.finish b

let test_pss_rc_phasor () =
  let freq = 1e5 in
  let c = driven_rc ~freq in
  let pss = Pss.solve ~steps:400 c ~period:(1.0 /. freq) in
  Alcotest.(check bool) "converged quickly" true (pss.Pss.iterations <= 3);
  Alcotest.(check bool) "residual small" true (pss.Pss.residual < 1e-7);
  (* compare against the phasor solution H = 1/(1 + jf/fp) *)
  let fpole = 1e6 in
  let h = Cx.( /: ) Cx.one (Cx.mk 1.0 (freq /. fpole)) in
  let gain = Cx.abs h and phase = Cx.arg h in
  let samples = Pss.node_samples pss "out" in
  let m = Array.length samples in
  let worst = ref 0.0 in
  for k = 0 to m - 1 do
    let t = float_of_int (k + 1) /. float_of_int m /. freq in
    let expected =
      0.5 +. (0.2 *. gain *. sin ((2.0 *. Float.pi *. freq *. t) +. phase))
    in
    worst := Float.max !worst (Float.abs (samples.(k) -. expected))
  done;
  Alcotest.(check bool)
    (Printf.sprintf "phasor match, worst err %.2g" !worst)
    true (!worst < 3e-3);
  (* amplitude helper: fundamental of out = 0.2·|H| *)
  check_float ~eps:2e-4 "amplitude" (0.2 *. gain) (Pss.amplitude pss "out")

let test_pss_monodromy_rc () =
  let freq = 1e5 in
  let c = driven_rc ~freq in
  let steps = 200 in
  let pss = Pss.solve ~steps c ~period:(1.0 /. freq) in
  (* for the linear RC, the per-step BE contraction on the cap node is
     a = (C/h)/(C/h + 1/R); the monodromy diagonal entry is a^M *)
  let h = pss.Pss.period /. float_of_int steps in
  let coh = 159.155e-12 /. h in
  let a = coh /. (coh +. 1e-3) in
  let expected = a ** float_of_int steps in
  let row = Circuit.node_row c "out" in
  check_float ~eps:1e-9 "monodromy entry" expected
    (Mat.get (Pss.monodromy pss) row row)

let test_pss_dc_driven () =
  (* a DC-driven circuit has a constant PSS equal to the DC solution *)
  let b = Builder.create () in
  Builder.vdc b "VDD" "vdd" "0" 1.2;
  Builder.vdc b "VIN" "in" "0" 0.6;
  Gates.inverter b "inv" ~input:"in" ~output:"out" ~vdd:"vdd";
  let c = Builder.finish b in
  let dc = Dc.solve c in
  let pss = Pss.solve ~steps:50 c ~period:1e-9 in
  let worst = ref 0.0 in
  Array.iter
    (fun st -> worst := Float.max !worst (Vec.dist_inf st dc))
    pss.Pss.states;
  Alcotest.(check bool) "constant PSS = DC" true (!worst < 1e-6)

let switched_inverter () =
  (* inverter driven by a square clock: a genuinely time-varying PSS *)
  let b = Builder.create () in
  Builder.vdc b "VDD" "vdd" "0" 1.2;
  Builder.vsource b "VIN" "in" "0"
    (Wave.square ~v1:0.0 ~v2:1.2 ~period:4e-9 ~transition:100e-12 ());
  Gates.inverter b "inv" ~input:"in" ~output:"out" ~vdd:"vdd";
  Gates.inverter b "inv2" ~input:"out" ~output:"out2" ~vdd:"vdd";
  Builder.finish b

let test_pss_switched_inverter () =
  let c = switched_inverter () in
  let pss = Pss.solve ~steps:200 c ~period:4e-9 in
  let v = Pss.node_samples pss "out" in
  let hi = Array.fold_left Float.max v.(0) v in
  let lo = Array.fold_left Float.min v.(0) v in
  Alcotest.(check bool) "full swing" true (hi > 1.1 && lo < 0.1);
  Alcotest.(check bool) "residual" true (pss.Pss.residual < 1e-7)

(* ----------------------------------------------------------------- LPTV *)

let test_lptv_lti_equals_ac () =
  (* on a DC-driven (LTI) circuit the LPTV solution at offset f must
     reduce exactly to the AC solution at f, with no folding *)
  let b = Builder.create () in
  Builder.vdc b "VIN" "in" "0" 0.5;
  Builder.resistor b "R1" "in" "out" 1e3;
  Builder.capacitor b "C1" "out" "0" 1e-9;
  let c = Builder.finish b in
  let pss = Pss.solve ~steps:64 c ~period:1e-6 in
  let f = 2e5 in
  let lptv = Lptv.build pss ~f_offset:f in
  let row = Circuit.node_row c "out" in
  let p = Lptv.solve_source lptv (Lptv.constant_injection [ (row, 1.0) ]) in
  let y0 = Lptv.harmonic_of_response lptv p ~row ~harmonic:0 in
  let ac = Ac.prepare c in
  let y_ac = Ac.solve ac ~freq:f ~input:(Ac.Injection [ (row, 1.0) ]) in
  Alcotest.(check bool)
    (Printf.sprintf "baseband = AC: got %s want %s"
       (Format.asprintf "%a" Cx.pp y0)
       (Format.asprintf "%a" Cx.pp (Cvec.get y_ac row)))
    true
    (Cx.close ~tol:1e-6 y0 (Cvec.get y_ac row));
  (* no folding in an LTI circuit *)
  let y1 = Lptv.harmonic_of_response lptv p ~row ~harmonic:1 in
  Alcotest.(check bool) "no sideband leakage" true (Cx.abs y1 < 1e-9 *. Cx.abs y0)

let test_lptv_adjoint_equals_direct () =
  (* the adjoint functional must reproduce direct transfers on a truly
     time-varying circuit, for several harmonics and injections *)
  let c = switched_inverter () in
  let pss = Pss.solve ~steps:128 c ~period:4e-9 in
  let lptv = Lptv.build pss ~f_offset:1.0 in
  let out_row = Circuit.node_row c "out2" in
  let in_row = Circuit.node_row c "out" in
  List.iter
    (fun harmonic ->
      let lam = Lptv.adjoint_harmonic lptv ~row:out_row ~harmonic in
      List.iter
        (fun inj ->
          let direct =
            Lptv.harmonic_of_response lptv
              (Lptv.solve_source lptv inj)
              ~row:out_row ~harmonic
          in
          let via_adjoint = Lptv.apply lam inj in
          Alcotest.(check bool)
            (Printf.sprintf "harmonic %d: direct %s adjoint %s" harmonic
               (Format.asprintf "%a" Cx.pp direct)
               (Format.asprintf "%a" Cx.pp via_adjoint))
            true
            (Cx.close ~tol:1e-7 direct via_adjoint))
        [
          Lptv.constant_injection [ (in_row, 1e-6) ];
          Lptv.constant_injection [ (out_row, 1e-6) ];
          (* a time-varying (modulated) injection *)
          (fun k -> if k mod 2 = 0 then [ (in_row, 1e-6) ] else [ (in_row, -1e-6) ]);
        ])
    [ 0; 1; 3 ]

let test_lptv_adjoint_sample_equals_direct () =
  let c = switched_inverter () in
  let pss = Pss.solve ~steps:128 c ~period:4e-9 in
  let lptv = Lptv.build pss ~f_offset:1.0 in
  let out_row = Circuit.node_row c "out2" in
  let in_row = Circuit.node_row c "out" in
  let k = 40 in
  let lam = Lptv.adjoint_sample lptv ~row:out_row ~k in
  let inj = Lptv.constant_injection [ (in_row, 1e-6) ] in
  let p = Lptv.solve_source lptv inj in
  let direct = Cvec.get p.(k) out_row in
  let via_adjoint = Lptv.apply lam inj in
  Alcotest.(check bool) "sample adjoint = direct" true
    (Cx.close ~tol:1e-7 direct via_adjoint)

let test_lptv_folding_present () =
  (* the switched inverter must fold a stationary injection into the
     N = 1 sideband (time-varying small-signal gain) *)
  let c = switched_inverter () in
  let pss = Pss.solve ~steps:128 c ~period:4e-9 in
  let lptv = Lptv.build pss ~f_offset:1.0 in
  let out_row = Circuit.node_row c "out2" in
  let in_row = Circuit.node_row c "out" in
  let p = Lptv.solve_source lptv (Lptv.constant_injection [ (in_row, 1e-6) ]) in
  let y1 = Lptv.harmonic_of_response lptv p ~row:out_row ~harmonic:1 in
  Alcotest.(check bool) "sideband energy present" true (Cx.abs y1 > 0.0)

let test_lptv_rlc_branch_rows () =
  (* series RLC: the inductor adds a branch unknown; LPTV at offset f on
     the DC-driven circuit must still equal the AC solution exactly *)
  let b = Builder.create () in
  Builder.vdc b "VIN" "in" "0" 1.0;
  Builder.resistor b "R1" "in" "mid" 5.0;
  Builder.inductor b "L1" "mid" "out" 1e-6;
  Builder.capacitor b "C1" "out" "0" 1e-9;
  let c = Builder.finish b in
  let pss = Pss.solve ~steps:64 c ~period:1e-6 in
  let f = 3e6 in
  let lptv = Lptv.build pss ~f_offset:f in
  let row = Circuit.node_row c "out" in
  let p = Lptv.solve_source lptv (Lptv.constant_injection [ (row, 1e-3) ]) in
  let y0 = Lptv.harmonic_of_response lptv p ~row ~harmonic:0 in
  let ac = Ac.prepare c in
  let y_ac = Ac.solve ac ~freq:f ~input:(Ac.Injection [ (row, 1e-3) ]) in
  Alcotest.(check bool) "rlc lptv = ac" true (Cx.close ~tol:1e-6 y0 (Cvec.get y_ac row));
  (* the resonance peak exists where it should: f0 = 1/(2pi sqrt(LC)) *)
  let f_res = 1.0 /. (2.0 *. Float.pi *. sqrt (1e-6 *. 1e-9)) in
  let mag freq =
    Cx.abs (Ac.output_impedance ac ~freq ~node:"out")
  in
  Alcotest.(check bool) "resonance peak" true
    (mag f_res > mag (f_res /. 3.0) && mag f_res > mag (f_res *. 3.0))

let test_floquet_multipliers () =
  (* driven RC: single energy-storage mode with the exact BE
     contraction a^M; the other multipliers (algebraic rows) are 0 *)
  let freq = 1e5 in
  let c = driven_rc ~freq in
  let steps = 200 in
  let pss = Pss.solve ~steps c ~period:(1.0 /. freq) in
  let mults = Pss.floquet_multipliers pss in
  let h = pss.Pss.period /. float_of_int steps in
  let coh = 159.155e-12 /. h in
  let expected = (coh /. (coh +. 1e-3)) ** float_of_int steps in
  check_float ~eps:1e-9 "dominant multiplier" expected (Cx.abs mults.(0));
  Alcotest.(check bool) "stable orbit" true (Cx.abs mults.(0) < 1.0)

let test_floquet_oscillator_phase_mode () =
  (* the limit cycle's neutral phase mode: one multiplier ~ 1 (up to the
     BE discretization damping), the rest well inside the unit circle *)
  let osc = Ring_osc.solve_pss () in
  let mults = Pss.floquet_multipliers osc.Pss_osc.pss in
  Alcotest.(check bool)
    (Printf.sprintf "phase mode |mu| = %.6f ~ 1" (Cx.abs mults.(0)))
    true
    (Cx.abs mults.(0) > 0.98 && Cx.abs mults.(0) < 1.02);
  Alcotest.(check bool)
    (Printf.sprintf "next multiplier %.4f clearly contracting" (Cx.abs mults.(1)))
    true
    (Cx.abs mults.(1) < 0.9)

(* ----------------------------------------------------------- Pnoise *)

let test_pnoise_sigma_waveform_consistency () =
  (* sigma_waveform (direct solves) must agree point-wise with the
     adjoint time-sample analysis *)
  let c = switched_inverter () in
  let pss = Pss.solve ~steps:128 c ~period:4e-9 in
  let lptv = Lptv.build pss ~f_offset:1.0 in
  let sources = Pnoise.mismatch_sources lptv in
  let sw = Pnoise.sigma_waveform lptv ~output:"out2" ~sources in
  List.iter
    (fun k ->
      let sb = Pnoise.analyze_sample lptv ~output:"out2" ~k ~sources in
      let sigma_adjoint = sqrt sb.Pnoise.total_psd in
      Alcotest.(check bool)
        (Printf.sprintf "k=%d: %.4g vs %.4g" k sw.(k - 1) sigma_adjoint)
        true
        (Float.abs (sw.(k - 1) -. sigma_adjoint)
         < 1e-6 *. Float.max sw.(k - 1) 1e-12))
    [ 10; 40; 100 ]

let test_pnoise_physical_sources () =
  (* thermal + flicker device noise through the LPTV machinery: finite,
     positive, and (for the inverter) dominated by the MOSFET channels *)
  let c = switched_inverter () in
  let pss = Pss.solve ~steps:128 c ~period:4e-9 in
  let lptv = Lptv.build pss ~f_offset:1e6 in
  let sources = Pnoise.physical_sources lptv in
  Alcotest.(check bool) "sources exist" true (Array.length sources >= 4);
  let sb = Pnoise.analyze lptv ~output:"out2" ~harmonic:0 ~sources in
  Alcotest.(check bool) "positive PSD" true (sb.Pnoise.total_psd > 0.0);
  Alcotest.(check bool) "finite" true (Float.is_finite sb.Pnoise.total_psd);
  (* pseudo-noise and physical noise coexist in one analysis (paper SV
     footnote): totals add since the source sets are independent *)
  let pn = Pnoise.mismatch_sources lptv in
  let both = Array.append sources pn in
  let sb_both = Pnoise.analyze lptv ~output:"out2" ~harmonic:0 ~sources:both in
  let sb_pn = Pnoise.analyze lptv ~output:"out2" ~harmonic:0 ~sources:pn in
  Alcotest.(check bool) "contributions additive" true
    (Float.abs (sb_both.Pnoise.total_psd
                -. (sb.Pnoise.total_psd +. sb_pn.Pnoise.total_psd))
     < 1e-9 *. sb_both.Pnoise.total_psd)

(* ----------------------------------------------------------- Oscillator *)

let test_ring_osc_tran () =
  let circuit = Ring_osc.build () in
  let f = Ring_osc.measure_frequency_tran circuit in
  Alcotest.(check bool)
    (Printf.sprintf "oscillates at %.3g Hz" f)
    true
    (f > 1e8 && f < 2e10)

let test_ring_osc_pss () =
  let osc = Ring_osc.solve_pss () in
  let f_pss = osc.Pss_osc.frequency in
  let circuit = Ring_osc.build () in
  let f_tran = Ring_osc.measure_frequency_tran circuit in
  Alcotest.(check bool)
    (Printf.sprintf "PSS %.4g vs tran %.4g" f_pss f_tran)
    true
    (Float.abs (f_pss -. f_tran) < 0.02 *. f_tran);
  Alcotest.(check bool) "residual" true (osc.Pss_osc.pss.Pss.residual < 1e-6)

let test_period_sens_vs_fd () =
  (* the adjoint frequency sensitivities must match finite differences
     through full oscillator re-solves *)
  let osc = Ring_osc.solve_pss () in
  let report = Period_sens.analyze osc in
  let base_circuit = Ring_osc.build () in
  let params = Circuit.mismatch_params base_circuit in
  let f_of_deltas deltas =
    let c = Circuit.apply_deltas base_circuit deltas in
    let osc =
      Pss_osc.solve ~steps:200 c ~anchor:Ring_osc.anchor
        ~f_guess:(Ring_osc.f_guess Ring_osc.default_params)
    in
    osc.Pss_osc.frequency
  in
  (* test the two largest contributors and one beta parameter *)
  let sorted = Array.copy report.Period_sens.contributions in
  Array.sort
    (fun (a : Period_sens.contribution) b ->
      compare b.Period_sens.variance_share a.Period_sens.variance_share)
    sorted;
  let test_param (c : Period_sens.contribution) =
    let eps =
      match c.Period_sens.param.Circuit.kind with
      | Circuit.Delta_vt -> 1e-3
      | Circuit.Delta_beta | Circuit.Delta_r | Circuit.Delta_c
      | Circuit.Delta_is -> 1e-2
    in
    let dp = Array.make (Array.length params) 0.0 in
    dp.(c.Period_sens.param.Circuit.param_index) <- eps;
    let dm = Array.make (Array.length params) 0.0 in
    dm.(c.Period_sens.param.Circuit.param_index) <- -.eps;
    let fd = (f_of_deltas dp -. f_of_deltas dm) /. (2.0 *. eps) in
    Alcotest.(check bool)
      (Printf.sprintf "df/d%s(%s): adjoint %.4g vs FD %.4g"
         (Circuit.kind_to_string c.Period_sens.param.Circuit.kind)
         c.Period_sens.param.Circuit.device_name c.Period_sens.df_ddelta fd)
      true
      (Float.abs (c.Period_sens.df_ddelta -. fd)
       < 0.05 *. Float.max (Float.abs fd) 1.0)
  in
  test_param sorted.(0);
  test_param sorted.(1)

(* ------------------------------------------------------ exact bit pins *)

(* IEEE-754 bits recorded before complex storage moved to split re/im
   arrays: the port keeps the stdlib [Complex] operation order, so every
   value below must stay identical to the last bit. *)

let check_bits msg expected actual =
  Alcotest.(check int64) msg expected (Int64.bits_of_float actual)

let test_bits_comparator_pnoise () =
  (* 16 unknowns: dense Clu step solvers and a dense wrap *)
  let c = (Spice_elab.load_file "../decks/comparator.sp").Spice_elab.circuit in
  let pss = Pss.solve c ~period:4e-9 in
  let lptv = Lptv.build pss ~f_offset:1.0 in
  let sources = Pnoise.mismatch_sources lptv in
  let sb = Pnoise.analyze lptv ~output:"vos" ~harmonic:0 ~sources in
  check_bits "total_psd" 0x3f2b3f8328b9c71cL sb.Pnoise.total_psd;
  List.iteri
    (fun i (re, im) ->
      let tf = sb.Pnoise.contributions.(i).Pnoise.transfer in
      check_bits (Printf.sprintf "transfer %d re" i) re tf.Cx.re;
      check_bits (Printf.sprintf "transfer %d im" i) im tf.Cx.im)
    [ (0x3c853de0fcb4f31eL, 0xbb265a004c880e03L);
      (0xbc796cfadc191a15L, 0x3b13395982090716L);
      (0x3feffffffab9b25eL, 0xbe7090d178a4326fL) ]

let test_bits_divider_sigma_waveform () =
  let c = (Spice_elab.load_file "../decks/divider.sp").Spice_elab.circuit in
  let pss = Pss.solve c ~period:1e-6 in
  let lptv = Lptv.build pss ~f_offset:1.0 in
  let sources = Pnoise.mismatch_sources lptv in
  List.iter
    (fun (name, via, expected) ->
      let w = Pnoise.sigma_waveform ~via lptv ~output:"out" ~sources in
      List.iteri
        (fun k e -> check_bits (Printf.sprintf "%s sample %d" name k) e w.(k))
        expected)
    [ ("forward", `Forward,
       [ 0x3f7cf68d4d53a645L; 0x3f7cf68d4d53a644L; 0x3f7cf68d4d53a644L ]);
      ("adjoint", `Adjoint,
       [ 0x3f7cf68d4d53a66aL; 0x3f7cf68d4d53a66aL; 0x3f7cf68d4d53a66aL ]) ]

let () =
  Alcotest.run "pss_lptv"
    [
      ( "pss",
        [
          Alcotest.test_case "rc phasor" `Quick test_pss_rc_phasor;
          Alcotest.test_case "monodromy rc" `Quick test_pss_monodromy_rc;
          Alcotest.test_case "dc driven" `Quick test_pss_dc_driven;
          Alcotest.test_case "switched inverter" `Quick test_pss_switched_inverter;
          Alcotest.test_case "floquet multipliers (rc)" `Quick
            test_floquet_multipliers;
          Alcotest.test_case "floquet phase mode (osc)" `Slow
            test_floquet_oscillator_phase_mode;
        ] );
      ( "lptv",
        [
          Alcotest.test_case "lti = ac" `Quick test_lptv_lti_equals_ac;
          Alcotest.test_case "adjoint = direct (harmonics)" `Quick
            test_lptv_adjoint_equals_direct;
          Alcotest.test_case "adjoint = direct (sample)" `Quick
            test_lptv_adjoint_sample_equals_direct;
          Alcotest.test_case "folding present" `Quick test_lptv_folding_present;
          Alcotest.test_case "rlc branch rows" `Quick test_lptv_rlc_branch_rows;
          Alcotest.test_case "sigma waveform consistency" `Quick
            test_pnoise_sigma_waveform_consistency;
          Alcotest.test_case "physical sources" `Quick
            test_pnoise_physical_sources;
        ] );
      ( "bits",
        [
          Alcotest.test_case "comparator pnoise" `Quick
            test_bits_comparator_pnoise;
          Alcotest.test_case "divider sigma waveform" `Quick
            test_bits_divider_sigma_waveform;
        ] );
      ( "oscillator",
        [
          Alcotest.test_case "transient oscillates" `Slow test_ring_osc_tran;
          Alcotest.test_case "pss frequency" `Slow test_ring_osc_pss;
          Alcotest.test_case "period sens vs FD" `Slow test_period_sens_vs_fd;
        ] );
    ]
