(* DC operating-point and transient-integration validation against
   closed-form circuit solutions. *)

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let nmos = Mosfet.nmos_013


(* ------------------------------------------------------------------- DC *)

let test_dc_divider () =
  let b = Builder.create () in
  Builder.vdc b "V1" "in" "0" 3.0;
  Builder.resistor b "R1" "in" "mid" 2e3;
  Builder.resistor b "R2" "mid" "0" 1e3;
  let c = Builder.finish b in
  let x = Dc.solve c in
  check_float ~eps:1e-6 "mid voltage" 1.0 (Circuit.voltage c x "mid");
  (* branch current of the source: 3V across 3k, flowing p->n inside the
     source means -1 mA in our convention *)
  check_float ~eps:1e-9 "source current" (-1e-3) x.(Circuit.branch_row c "V1")

let test_dc_isource () =
  let b = Builder.create () in
  Builder.isource b "I1" "0" "out" (Wave.Dc 1e-3);
  Builder.resistor b "R1" "out" "0" 1e3;
  let c = Builder.finish b in
  let x = Dc.solve c in
  check_float ~eps:1e-6 "I*R" 1.0 (Circuit.voltage c x "out")

let test_dc_vccs () =
  (* vccs loaded by resistor: v_out = -gm*R*v_in *)
  let b = Builder.create () in
  Builder.vdc b "VIN" "in" "0" 0.1;
  Builder.vccs b "G1" "out" "0" "in" "0" 1e-3;
  Builder.resistor b "RL" "out" "0" 10e3;
  let c = Builder.finish b in
  let x = Dc.solve c in
  check_float ~eps:1e-6 "vccs gain" (-1.0) (Circuit.voltage c x "out")

let test_dc_vcvs () =
  let b = Builder.create () in
  Builder.vdc b "VIN" "in" "0" 0.25;
  Builder.vcvs b "E1" "out" "0" "in" "0" 4.0;
  Builder.resistor b "RL" "out" "0" 1e3;
  let c = Builder.finish b in
  let x = Dc.solve c in
  check_float ~eps:1e-6 "vcvs gain" 1.0 (Circuit.voltage c x "out")

let test_dc_cccs () =
  (* sense 1 mA through VSENS; F mirrors it with gain 5 into 1k: 5 V *)
  let b = Builder.create () in
  Builder.vdc b "V1" "in" "0" 1.0;
  Builder.vdc b "VSENS" "in" "mid" 0.0;
  Builder.resistor b "R1" "mid" "0" 1e3;
  Builder.cccs b "F1" "0" "out" ~ctrl:"VSENS" 5.0;
  Builder.resistor b "RL" "out" "0" 1e3;
  let c = Builder.finish b in
  let x = Dc.solve c in
  (* i(VSENS) = -1 mA in our convention (flows p->n internally), so the
     mirrored current is -5 mA from 0 to out -> v(out) = -(-5m)*1k... *)
  Alcotest.(check bool)
    (Printf.sprintf "cccs output %.3f" (Circuit.voltage c x "out"))
    true
    (Float.abs (Float.abs (Circuit.voltage c x "out") -. 5.0) < 1e-6)

let test_dc_ccvs () =
  (* H with r=2k on a sensed 1 mA: output voltage magnitude 2 V *)
  let b = Builder.create () in
  Builder.vdc b "V1" "in" "0" 1.0;
  Builder.vdc b "VSENS" "in" "mid" 0.0;
  Builder.resistor b "R1" "mid" "0" 1e3;
  Builder.ccvs b "H1" "out" "0" ~ctrl:"VSENS" 2e3;
  Builder.resistor b "RL" "out" "0" 10e3;
  let c = Builder.finish b in
  let x = Dc.solve c in
  Alcotest.(check bool)
    (Printf.sprintf "ccvs output %.3f" (Circuit.voltage c x "out"))
    true
    (Float.abs (Float.abs (Circuit.voltage c x "out") -. 2.0) < 1e-6)

let test_dc_diode () =
  (* diode with 1k from 5V: V_diode ~ 0.6-0.75V, check KCL consistency *)
  let b = Builder.create () in
  Builder.vdc b "V1" "in" "0" 5.0;
  Builder.resistor b "R1" "in" "d" 1e3;
  Builder.diode b "D1" "d" "0";
  let c = Builder.finish b in
  let x = Dc.solve c in
  let vd = Circuit.voltage c x "d" in
  Alcotest.(check bool) "diode drop plausible" true (vd > 0.5 && vd < 0.85);
  let i_r = (5.0 -. vd) /. 1e3 in
  let i_d = 1e-14 *. (exp (vd /. 0.02585) -. 1.0) in
  Alcotest.(check bool) "diode KCL" true
    (Float.abs (i_r -. i_d) < 1e-6 *. i_r +. 1e-9)

let test_dc_inverter_vtc () =
  (* CMOS inverter: output high for low input, low for high input,
     and the switching threshold in between *)
  let vtc vin =
    let b = Builder.create () in
    Builder.vdc b "VDD" "vdd" "0" 1.2;
    Builder.vdc b "VIN" "in" "0" vin;
    Gates.inverter b "inv" ~input:"in" ~output:"out" ~vdd:"vdd";
    let c = Builder.finish b in
    let x = Dc.solve c in
    Circuit.voltage c x "out"
  in
  Alcotest.(check bool) "out high at vin=0" true (vtc 0.0 > 1.15);
  Alcotest.(check bool) "out low at vin=vdd" true (vtc 1.2 < 0.05);
  let vm = vtc 0.55 in
  Alcotest.(check bool) "transition region" true (vm > 0.1 && vm < 1.1);
  (* monotonically decreasing *)
  Alcotest.(check bool) "monotone" true (vtc 0.4 > vtc 0.6 && vtc 0.6 > vtc 0.8)

let test_dc_nand_truth_table () =
  let out va vb =
    let b = Builder.create () in
    Builder.vdc b "VDD" "vdd" "0" 1.2;
    Builder.vdc b "VA" "a" "0" va;
    Builder.vdc b "VB" "bb" "0" vb;
    Gates.nand2 b "g" ~a:"a" ~b:"bb" ~output:"out" ~vdd:"vdd";
    let c = Builder.finish b in
    let x = Dc.solve c in
    Circuit.voltage c x "out"
  in
  Alcotest.(check bool) "00 -> 1" true (out 0.0 0.0 > 1.1);
  Alcotest.(check bool) "01 -> 1" true (out 0.0 1.2 > 1.1);
  Alcotest.(check bool) "10 -> 1" true (out 1.2 0.0 > 1.1);
  Alcotest.(check bool) "11 -> 0" true (out 1.2 1.2 < 0.1)

let test_dc_nor_truth_table () =
  let out va vb =
    let b = Builder.create () in
    Builder.vdc b "VDD" "vdd" "0" 1.2;
    Builder.vdc b "VA" "a" "0" va;
    Builder.vdc b "VB" "bb" "0" vb;
    Gates.nor2 b "g" ~a:"a" ~b:"bb" ~output:"out" ~vdd:"vdd";
    let c = Builder.finish b in
    let x = Dc.solve c in
    Circuit.voltage c x "out"
  in
  Alcotest.(check bool) "00 -> 1" true (out 0.0 0.0 > 1.1);
  Alcotest.(check bool) "01 -> 0" true (out 0.0 1.2 < 0.1);
  Alcotest.(check bool) "10 -> 0" true (out 1.2 0.0 < 0.1);
  Alcotest.(check bool) "11 -> 0" true (out 1.2 1.2 < 0.1)

let test_dc_mismatch_shifts_op () =
  (* VT shift on a diode-connected NMOS shifts its gate voltage by about
     the same amount *)
  let vg delta =
    let b = Builder.create () in
    Builder.isource b "IB" "0" "g" (Wave.Dc 100e-6);
    Builder.mosfet b "M1" ~d:"g" ~g:"g" ~s:"0" ~model:nmos ~w:2e-6 ~l:0.13e-6 ();
    let c = Builder.finish b in
    let params = Circuit.mismatch_params c in
    let deltas = Array.make (Array.length params) 0.0 in
    Array.iter
      (fun (p : Circuit.mismatch_param) ->
        if p.Circuit.kind = Circuit.Delta_vt then
          deltas.(p.Circuit.param_index) <- delta)
      params;
    let c = Circuit.apply_deltas c deltas in
    let x = Dc.solve c in
    Circuit.voltage c x "g"
  in
  let shift = vg 0.02 -. vg 0.0 in
  Alcotest.(check bool)
    (Printf.sprintf "20mV VT shift moves VG by %.1f mV" (shift *. 1e3))
    true
    (shift > 0.015 && shift < 0.025)

(* ------------------------------------------------------------ Transient *)

let test_tran_rc_step () =
  (* RC charging: v(t) = V(1 - e^{-t/RC}) *)
  let r = 1e3 and cap = 1e-9 in
  let b = Builder.create () in
  Builder.vsource b "V1" "in" "0"
    (Wave.Pulse
       { Wave.v1 = 0.0; v2 = 1.0; delay = 0.0; rise = 1e-12; fall = 1e-12;
         width = 1.0; period = 0.0 });
  Builder.resistor b "R1" "in" "out" r;
  Builder.capacitor b "C1" "out" "0" cap;
  let c = Builder.finish b in
  let tau = r *. cap in
  let w = Tran.run c ~tstart:0.0 ~tstop:(5.0 *. tau) ~dt:(tau /. 200.0) () in
  List.iter
    (fun mult ->
      let t = mult *. tau in
      let expected = 1.0 -. exp (-.mult) in
      let got = Waveform.value_at w "out" t in
      Alcotest.(check bool)
        (Printf.sprintf "rc at %.1f tau" mult)
        true
        (Float.abs (got -. expected) < 5e-3))
    [ 0.5; 1.0; 2.0; 4.0 ]

let test_tran_trapezoidal_more_accurate () =
  let build () =
    let b = Builder.create () in
    Builder.vsource b "V1" "in" "0"
      (Wave.Sin { Wave.offset = 0.0; ampl = 1.0; freq = 1e6; phase_deg = 0.0 });
    Builder.resistor b "R1" "in" "out" 1e3;
    Builder.capacitor b "C1" "out" "0" 159.155e-12 (* pole at 1 MHz *);
    Builder.finish b
  in
  let run scheme =
    let options = { Tran.default_options with Tran.scheme } in
    let c = build () in
    let w = Tran.run ~options c ~tstart:0.0 ~tstop:5e-6 ~dt:5e-9 () in
    (* steady state amplitude should be 1/sqrt(2) at the pole *)
    let v = Waveform.signal w "out" in
    let tail = Array.sub v (Array.length v - 400) 400 in
    let hi = Array.fold_left Float.max tail.(0) tail in
    hi
  in
  let be = run Tran.Backward_euler in
  let trap = run Tran.Trapezoidal in
  let expected = 1.0 /. sqrt 2.0 in
  Alcotest.(check bool)
    (Printf.sprintf "trap %.4f closer than BE %.4f to %.4f" trap be expected)
    true
    (Float.abs (trap -. expected) < Float.abs (be -. expected));
  Alcotest.(check bool) "trap within 1%" true
    (Float.abs (trap -. expected) < 0.01)

let test_tran_inductor () =
  (* RL circuit: i(t) = (V/R)(1 - e^{-tR/L}) *)
  let r = 10.0 and l = 1e-6 in
  let b = Builder.create () in
  Builder.vsource b "V1" "in" "0"
    (Wave.Pulse
       { Wave.v1 = 0.0; v2 = 1.0; delay = 0.0; rise = 1e-12; fall = 1e-12;
         width = 1.0; period = 0.0 });
  Builder.resistor b "R1" "in" "mid" r;
  Builder.inductor b "L1" "mid" "0" l;
  let c = Builder.finish b in
  let tau = l /. r in
  let w = Tran.run c ~tstart:0.0 ~tstop:(5.0 *. tau) ~dt:(tau /. 200.0) () in
  let i_l = Waveform.branch_current w "L1" in
  let i_final = i_l.(Array.length i_l - 1) in
  check_float ~eps:2e-3 "inductor final current" 0.1 i_final

let test_tran_inverter_switches () =
  let b = Builder.create () in
  Builder.vdc b "VDD" "vdd" "0" 1.2;
  Builder.vsource b "VIN" "in" "0"
    (Wave.square ~v1:0.0 ~v2:1.2 ~period:2e-9 ~transition:50e-12 ());
  Gates.inverter b "inv" ~input:"in" ~output:"out" ~vdd:"vdd";
  let c = Builder.finish b in
  let w = Tran.run c ~tstart:0.0 ~tstop:2e-9 ~dt:2e-12 () in
  (* input rises at t=0..50ps; output must fall shortly after *)
  match
    Waveform.delay w ~from_signal:"in" ~from_edge:Waveform.Rising
      ~from_threshold:0.6 ~to_signal:"out" ~to_edge:Waveform.Falling
      ~to_threshold:0.6 ()
  with
  | None -> Alcotest.fail "inverter did not switch"
  | Some d ->
    Alcotest.(check bool)
      (Printf.sprintf "plausible gate delay %.1f ps" (d *. 1e12))
      true
      (d > 1e-12 && d < 500e-12)

let test_tran_record_false () =
  let b = Builder.create () in
  Builder.vdc b "V1" "in" "0" 1.0;
  Builder.resistor b "R1" "in" "out" 1e3;
  Builder.capacitor b "C1" "out" "0" 1e-9;
  let c = Builder.finish b in
  let w = Tran.run ~record:false c ~tstart:0.0 ~tstop:10e-6 ~dt:1e-8 () in
  Alcotest.(check int) "only endpoints" 2 (Waveform.length w);
  check_float ~eps:1e-4 "settled" 1.0 (Waveform.final w "out")

(* ------------------------------------------------------------- Waveform *)

let test_waveform_measurements () =
  let b = Builder.create () in
  Builder.vsource b "V1" "sig" "0"
    (Wave.Sin { Wave.offset = 0.5; ampl = 0.5; freq = 1e6; phase_deg = 0.0 });
  let c = Builder.finish b in
  let w = Tran.run c ~tstart:0.0 ~tstop:3.3e-6 ~dt:1e-9 () in
  (match Waveform.period_estimate w "sig" ~threshold:0.5 with
   | Some p -> check_float ~eps:3e-9 "period" 1e-6 p
   | None -> Alcotest.fail "no period");
  check_float ~eps:1e-2 "amplitude" 0.5 (Waveform.amplitude w "sig");
  let cs = Waveform.crossings w "sig" ~threshold:0.5 ~edge:Waveform.Rising in
  Alcotest.(check int) "three rising crossings" 3 (Array.length cs);
  let csv = Waveform.to_csv w ~nodes:[ "sig" ] in
  Alcotest.(check bool) "csv header" true
    (String.length csv > 10 && String.sub csv 0 8 = "time,sig")

(* ------------------------------------------------------ exact bit pins *)

(* IEEE-754 bits recorded before Lu and the stamp sinks indexed their
   float arrays directly: the kernels keep the operation order, so every
   unknown below must stay identical to the last bit. *)

let check_bits msg expected actual =
  Alcotest.(check int64) msg expected (Int64.bits_of_float actual)

let check_all_bits msg expected x =
  Alcotest.(check int) (msg ^ " size") (List.length expected) (Vec.dim x);
  List.iteri
    (fun i e -> check_bits (Printf.sprintf "%s x.(%d)" msg i) e x.(i))
    expected

let deck name = (Spice_elab.load_file ("../decks/" ^ name)).Spice_elab.circuit

let test_bits_dc_sram () =
  check_all_bits "sram_read"
    [ 0x3ff3333333333333L; 0x3ff3333333333333L; 0x3ff3333333333333L;
      0x3ff3333333333333L; 0x3ff32ff9e4a39e76L; 0x3fcf16239ac6e08dL;
      0xbe7a5baec2568891L; 0xbd751c51ce3718e1L; 0xbf2b8c58b7ff0e06L;
      0xbd9394904286d45cL ]
    (Dc.solve (deck "sram_read.sp"))

let test_bits_dc_comparator () =
  check_all_bits "comparator"
    [ 0x3ff3333333333333L; 0x0L; 0x3fe6666666666666L; 0xbb18bdc3bdbd3000L;
      0x3fe6666666666666L; 0x3fe6666666666666L; 0x3fe669ab6ec43d44L;
      0x3ff3332fb93c5231L; 0x3ff3332fb93c5231L; 0x3ff3333332e3fcdfL;
      0x3ff3333332e3fcdfL; 0xbe302ef81130e696L; 0x0L; 0xbd8278c7947035c4L;
      0xbd68a10a1b4047b1L; 0xbd68a10a1b4047b1L ]
    (Dc.solve (deck "comparator.sp"))

(* one 4 ns clock period (precharge, evaluate, reset) in 80 steps; the
   trapezoidal rule halves the resistive Jacobian every iteration *)
let comparator_last_state scheme =
  let options = { Tran.default_options with Tran.scheme } in
  let w =
    Tran.run ~options ~record:false (deck "comparator.sp") ~tstart:0.0
      ~tstop:4e-9 ~dt:50e-12 ()
  in
  w.Waveform.states.(Array.length w.Waveform.states - 1)

let test_bits_tran_be () =
  check_all_bits "backward euler"
    [ 0x3ff3333333333333L; 0x0L; 0x3fe6666666666666L; 0xbc4d61b47a5b632dL;
      0x3fe6666666666666L; 0x3fe6666666666666L; 0x3fdf2f68f3ad5cfdL;
      0x3ff32f18f3a25301L; 0x3ff32f18f3a25301L; 0x3ff2d8e0396f8a36L;
      0x3ff2d8e0396f8a36L; 0xbf09c2011a48ed2dL; 0x3eb0ac612a4e7ce1L;
      0x3e9b46dd50f62180L; 0x3e8b46e0651764fcL; 0x3e8b46e0651764d4L ]
    (comparator_last_state Tran.Backward_euler)

let test_bits_tran_trap () =
  check_all_bits "trapezoidal"
    [ 0x3ff3333333333333L; 0x0L; 0x3fe6666666666666L; 0x3be2239cd47f44faL;
      0x3fe6666666666666L; 0x3fe6666666666666L; 0x3fdf59df7da11532L;
      0x3ff32f59b2ee71f0L; 0x3ff32f59b2ee71f0L; 0x3ff2e154eba63c3dL;
      0x3ff2e154eba63c3dL; 0xbf0765e4dd8a5739L; 0x3eae959b492f75c7L;
      0x3e995c242674d245L; 0x3e895c273a962b3eL; 0x3e895c273a95fae9L ]
    (comparator_last_state Tran.Trapezoidal)

let () =
  Alcotest.run "dc_tran"
    [
      ( "dc",
        [
          Alcotest.test_case "divider" `Quick test_dc_divider;
          Alcotest.test_case "isource" `Quick test_dc_isource;
          Alcotest.test_case "vccs" `Quick test_dc_vccs;
          Alcotest.test_case "vcvs" `Quick test_dc_vcvs;
          Alcotest.test_case "cccs" `Quick test_dc_cccs;
          Alcotest.test_case "ccvs" `Quick test_dc_ccvs;
          Alcotest.test_case "diode" `Quick test_dc_diode;
          Alcotest.test_case "inverter VTC" `Quick test_dc_inverter_vtc;
          Alcotest.test_case "nand truth table" `Quick test_dc_nand_truth_table;
          Alcotest.test_case "nor truth table" `Quick test_dc_nor_truth_table;
          Alcotest.test_case "mismatch shifts op" `Quick test_dc_mismatch_shifts_op;
        ] );
      ( "tran",
        [
          Alcotest.test_case "rc step" `Quick test_tran_rc_step;
          Alcotest.test_case "trapezoidal accuracy" `Quick
            test_tran_trapezoidal_more_accurate;
          Alcotest.test_case "inductor" `Quick test_tran_inductor;
          Alcotest.test_case "inverter switches" `Quick test_tran_inverter_switches;
          Alcotest.test_case "record=false" `Quick test_tran_record_false;
        ] );
      ( "waveform",
        [ Alcotest.test_case "measurements" `Quick test_waveform_measurements ] );
      ( "bits",
        [
          Alcotest.test_case "dc sram_read" `Quick test_bits_dc_sram;
          Alcotest.test_case "dc comparator" `Quick test_bits_dc_comparator;
          Alcotest.test_case "tran comparator BE" `Quick test_bits_tran_be;
          Alcotest.test_case "tran comparator trap" `Quick test_bits_tran_trap;
        ] );
    ]
