(* Matrix-free Krylov path vs the dense monodromy path.

   Two families of guarantees (ISSUE 6 / docs/solver.md):
   - parity: on any circuit, shooting through GMRES and LPTV wrap
     solves through GMRES read the same physics as the explicit
     monodromy of the Dense and Sparse regimes;
   - resilience: an injected GMRES stagnation takes the dense fallback
     rung, is counted like sparse→dense degradation, and leaves the
     results bit-identical to a dense-only run. *)

let with_obs f =
  Obs.enable ();
  Fun.protect ~finally:(fun () -> Obs.disable ()) f

(* --------------------------------------------------- GMRES unit level *)

let test_gmres_dense_system () =
  (* random diagonally dominant complex system; GMRES vs direct LU *)
  let rng = Rng.create 42 in
  let n = 24 in
  let a =
    Array.init n (fun i ->
        Array.init n (fun j ->
            let base = Cx.mk (Rng.uniform_range rng (-1.0) 1.0)
                (Rng.uniform_range rng (-1.0) 1.0) in
            if i = j then Cx.( +: ) base (Cx.re (float_of_int n)) else base))
  in
  let apply v dst =
    for i = 0 to n - 1 do
      let acc = ref Cx.zero in
      for j = 0 to n - 1 do
        acc := Cx.( +: ) !acc (Cx.( *: ) a.(i).(j) (Cvec.get v j))
      done;
      Cvec.set dst i !acc
    done
  in
  let b = Cvec.init n (fun _ ->
      Cx.mk (Rng.uniform_range rng (-1.0) 1.0) (Rng.uniform_range rng (-1.0) 1.0))
  in
  let x = Cvec.create n in
  let ws = Gmres.make_ws ~n ~restart:12 in
  let stats = Gmres.solve ws ~apply ~b ~x in
  Alcotest.(check bool) "converged" true stats.Gmres.converged;
  (* residual check against the operator itself *)
  let r = Cvec.create n in
  apply x r;
  let err = ref 0.0 and scale = ref 0.0 in
  for i = 0 to n - 1 do
    err := Float.max !err (Cx.abs (Cx.( -: ) (Cvec.get b i) (Cvec.get r i)));
    scale := Float.max !scale (Cx.abs (Cvec.get b i))
  done;
  Alcotest.(check bool)
    (Printf.sprintf "residual %.2g" (!err /. !scale))
    true
    (!err < 1e-10 *. !scale)

(* The workspace holds every length-n vector, so what one solve
   allocates is its O(restart) boxed Hessenberg/Givens scalars and
   nothing proportional to n.  A diagonal operator with three distinct
   eigenvalues converges in the same few Arnoldi steps at any n, so the
   minor words of one solve must not change from n = 64 to n = 4096. *)
let test_gmres_allocation_independent_of_n () =
  let solve_words n =
    let d = Array.init n (fun i -> float_of_int (1 lsl (i mod 3))) in
    let apply (v : Cvec.t) (dst : Cvec.t) =
      for i = 0 to n - 1 do
        dst.re.(i) <- d.(i) *. v.re.(i);
        dst.im.(i) <- d.(i) *. v.im.(i)
      done
    in
    let ws = Gmres.make_ws ~n ~restart:Gmres.default_restart in
    let b = Cvec.init n (fun i -> Cx.mk 1.0 (float_of_int (i mod 5))) in
    let x = Cvec.create n in
    let solve () =
      Cvec.fill x Cx.zero;
      Gmres.solve ~apply ws ~b ~x
    in
    ignore (solve ());
    let w0 = Gc.minor_words () in
    let stats = solve () in
    let words = Gc.minor_words () -. w0 in
    Alcotest.(check bool)
      (Printf.sprintf "n=%d converged" n)
      true stats.Gmres.converged;
    (words, stats.Gmres.iterations)
  in
  let w_small, it_small = solve_words 64 in
  let w_large, it_large = solve_words 4096 in
  Alcotest.(check int) "same Arnoldi steps" it_small it_large;
  Alcotest.(check (float 0.0)) "same minor words at n=64 and n=4096" w_small
    w_large

(* ------------------------------------------- random driven circuits *)

(* periodically driven RC ladder with a MOSFET load: time-varying PSS,
   branch row from the source, sizes far below Linsys.auto_threshold so
   the solver regimes are forced explicitly *)
let random_driven_circuit rng n =
  let b = Builder.create () in
  Builder.vsource b "VIN" "vdd" "0"
    (Wave.Sin
       { Wave.offset = 1.0; ampl = 0.2; freq = 1e6; phase_deg = 0.0 });
  for k = 1 to n do
    let nk = Printf.sprintf "n%d" k in
    let prev = if k = 1 then "vdd" else Printf.sprintf "n%d" (k - 1) in
    Builder.resistor ~tol:0.01 b (Printf.sprintf "Rs%d" k) prev nk
      (Rng.uniform_range rng 100.0 10e3);
    Builder.resistor b (Printf.sprintf "Rp%d" k) nk "0"
      (Rng.uniform_range rng 1e3 50e3);
    Builder.capacitor ~tol:0.01 b (Printf.sprintf "Cp%d" k) nk "0"
      (Rng.uniform_range rng 10e-12 100e-12)
  done;
  let mid = Printf.sprintf "n%d" (1 + (n / 2)) in
  Builder.mosfet b "M1" ~d:"vdd" ~g:mid ~s:"0" ~model:Mosfet.nmos_013
    ~w:2e-6 ~l:0.13e-6 ();
  Builder.finish b

let solve_pss ~solver c = Pss.solve ~steps:32 ~solver c ~period:1e-6

(* -------------------------------------------------- QCheck parity *)

let prop_floquet_parity =
  QCheck.Test.make ~count:8
    ~name:"PSS shooting: krylov Floquet multipliers match dense"
    QCheck.(pair (int_bound 10_000) (int_range 2 6))
    (fun (seed, n) ->
      let c = random_driven_circuit (Rng.create (seed + 3)) n in
      let mk = Pss.floquet_multipliers (solve_pss ~solver:Linsys.Krylov c) in
      List.for_all
        (fun solver ->
          let md = Pss.floquet_multipliers (solve_pss ~solver c) in
          let scale =
            Array.fold_left (fun acc m -> Float.max acc (Cx.abs m)) 1e-30 md
          in
          Array.length md = Array.length mk
          && Array.for_all2
               (fun a b -> Cx.abs (Cx.( -: ) a b) <= 1e-8 *. scale)
               md mk)
        [ Linsys.Dense; Linsys.Sparse ])

let prop_pnoise_parity =
  QCheck.Test.make ~count:8
    ~name:"PNOISE: krylov wrap solves match the dense factorization"
    QCheck.(pair (int_bound 10_000) (int_range 2 6))
    (fun (seed, n) ->
      let c = random_driven_circuit (Rng.create (seed + 5)) n in
      (* one PSS shared by every wrap treatment: the comparison isolates
         the LPTV layer *)
      let pss = solve_pss ~solver:Linsys.Dense c in
      let total solver =
        let lptv = Lptv.build ~solver pss ~f_offset:1.0 in
        let sources = Pnoise.mismatch_sources lptv in
        let sb = Pnoise.analyze lptv ~output:"n1" ~harmonic:0 ~sources in
        sb.Pnoise.total_psd
      in
      let k = total Linsys.Krylov in
      List.for_all
        (fun solver ->
          let d = total solver in
          Float.abs (d -. k) <= 1e-9 *. Float.abs d)
        [ Linsys.Dense; Linsys.Sparse ])

(* ------------------------------------- sigma_waveform reading parity *)

let test_sigma_forward_adjoint_parity () =
  let rng = Rng.create 1234 in
  let c = random_driven_circuit rng 5 in
  let pss = Pss.solve ~steps:48 c ~period:1e-6 in
  let lptv = Lptv.build pss ~f_offset:1.0 in
  let sources = Pnoise.mismatch_sources lptv in
  let fwd = Pnoise.sigma_waveform ~via:`Forward lptv ~output:"n1" ~sources in
  let adj = Pnoise.sigma_waveform ~via:`Adjoint lptv ~output:"n1" ~sources in
  let peak = Array.fold_left Float.max 0.0 fwd in
  Alcotest.(check int) "same grid" (Array.length fwd) (Array.length adj);
  Alcotest.(check bool) "nonzero envelope" true (peak > 0.0);
  Array.iteri
    (fun k f ->
      Alcotest.(check bool)
        (Printf.sprintf "k=%d: forward %.6g adjoint %.6g" (k + 1) f adj.(k))
        true
        (Float.abs (f -. adj.(k)) <= 1e-7 *. peak))
    fwd;
  (* the `Auto dispatch picks the cheaper reading and counts it *)
  with_obs (fun () ->
      ignore (Pnoise.sigma_waveform lptv ~output:"n1" ~sources);
      let expected_adjoint = Array.length sources > Lptv.steps lptv in
      Alcotest.(check int) "auto picked adjoint"
        (if expected_adjoint then 1 else 0)
        (Obs.counter_value "pnoise.sigma_waveform.adjoint");
      Alcotest.(check int) "auto skipped forward"
        (if expected_adjoint then 0 else 1)
        (Obs.counter_value "pnoise.sigma_waveform.forward"))

(* ------------------------------------------- no dense monodromy *)

let test_krylov_path_forms_no_dense_monodromy () =
  let rng = Rng.create 99 in
  let c = random_driven_circuit rng 6 in
  with_obs (fun () ->
      let pss = solve_pss ~solver:Linsys.Krylov c in
      let lptv = Lptv.build ~solver:Linsys.Krylov pss ~f_offset:1.0 in
      let sources = Pnoise.mismatch_sources lptv in
      ignore (Pnoise.analyze lptv ~output:"n1" ~harmonic:0 ~sources);
      Alcotest.(check int) "no dense monodromy in shooting" 0
        (Obs.counter_value "pss.monodromy.dense");
      Alcotest.(check int) "no dense wrap matrix" 0
        (Obs.counter_value "lptv.phi.dense");
      Alcotest.(check bool) "gmres actually ran" true
        (Obs.counter_value "gmres.iterations" > 0))

(* --------------------------------------- stagnation-injection rung *)

let test_pss_stagnation_fallback () =
  let c = random_driven_circuit (Rng.create 7) 5 in
  let reference = solve_pss ~solver:Linsys.Sparse c in
  let k0 = Linsys.krylov_fallback_count () in
  let faulted =
    Faultsim.arm [ { Faultsim.site = "pss.gmres"; visit = -1; fault = Faultsim.Nan } ];
    Fun.protect ~finally:Faultsim.disarm (fun () ->
        solve_pss ~solver:Linsys.Krylov c)
  in
  Alcotest.(check bool) "fallback counted" true
    (Linsys.krylov_fallback_count () > k0);
  (* the dense rung must be *bit*-identical to a dense-only run: the
     fallback rebuilds the monodromy with the exact op sequence of the
     dense sweep *)
  let worst = ref 0.0 in
  Array.iteri
    (fun k st ->
      worst := Float.max !worst (Vec.dist_inf st reference.Pss.states.(k)))
    faulted.Pss.states;
  Alcotest.(check (float 0.0)) "trajectory bit-identical" 0.0 !worst

let test_lptv_stagnation_fallback () =
  let c = random_driven_circuit (Rng.create 8) 5 in
  let pss = Pss.solve ~steps:32 c ~period:1e-6 in
  let run solver =
    let lptv = Lptv.build ~solver pss ~f_offset:1.0 in
    let sources = Pnoise.mismatch_sources lptv in
    let sb = Pnoise.analyze lptv ~output:"n1" ~harmonic:0 ~sources in
    let row = Circuit.node_row c "n1" in
    let p = Lptv.solve_source lptv (Lptv.constant_injection [ (row, 1e-6) ]) in
    (sb.Pnoise.total_psd, p)
  in
  let psd_dense, p_dense = run Linsys.Sparse in
  let k0 = Linsys.krylov_fallback_count () in
  let psd_faulted, p_faulted =
    Faultsim.arm
      [ { Faultsim.site = "lptv.gmres"; visit = -1; fault = Faultsim.Nan } ];
    Fun.protect ~finally:Faultsim.disarm (fun () -> run Linsys.Krylov)
  in
  Alcotest.(check bool) "fallback counted" true
    (Linsys.krylov_fallback_count () > k0);
  Alcotest.(check (float 0.0)) "total_psd bit-identical" psd_dense psd_faulted;
  let identical = ref true in
  Array.iteri
    (fun k (pk : Cvec.t) ->
      let w = p_dense.(k) in
      if pk.re <> w.Cvec.re || pk.im <> w.Cvec.im then identical := false)
    p_faulted;
  Alcotest.(check bool) "responses bit-identical" true !identical

(* ------------------------------------------------------ exact bit pins *)

(* the 64-code resistor-string DAC of the CI fallback smoke: 65 unknowns,
   so the size rule puts it on the sparse/Krylov path (GMRES shooting and
   a matrix-free wrap).  Bits recorded before complex storage moved to
   split re/im arrays; the port keeps the stdlib [Complex] operation
   order, so they must not move. *)
let dac_deck codes =
  let b = Buffer.create 4096 in
  Printf.bprintf b "%d-code resistor-string DAC\nVREF tap%d 0 SIN(1 0.02 1meg)\n"
    codes codes;
  for k = 1 to codes do
    Printf.bprintf b "R%d tap%d %s 1k tol=0.01\n" k k
      (if k = 1 then "0" else Printf.sprintf "tap%d" (k - 1))
  done;
  for k = 1 to codes - 1 do
    Printf.bprintf b "C%d tap%d 0 1p tol=0.01\n" k k
  done;
  Buffer.add_string b ".end\n";
  Buffer.contents b

let check_bits msg expected actual =
  Alcotest.(check int64) msg expected (Int64.bits_of_float actual)

let test_bits_dac64_pnoise () =
  let c = (Spice_elab.load_string (dac_deck 64)).Spice_elab.circuit in
  Alcotest.(check int) "65 unknowns" 65 (Circuit.size c);
  Alcotest.(check bool) "krylov regime" true
    (Linsys.solver_for (Circuit.size c) = Linsys.Krylov);
  let pss = Pss.solve c ~period:1e-6 in
  let lptv = Lptv.build pss ~f_offset:1.0 in
  let sources = Pnoise.mismatch_sources lptv in
  let sb = Pnoise.analyze lptv ~output:"tap32" ~harmonic:0 ~sources in
  check_bits "total_psd" 0x3e9a36e1beb8c090L sb.Pnoise.total_psd;
  List.iteri
    (fun i (re, im) ->
      let tf = sb.Pnoise.contributions.(i).Pnoise.transfer in
      check_bits (Printf.sprintf "transfer %d re" i) re tf.Cx.re;
      check_bits (Printf.sprintf "transfer %d im" i) im tf.Cx.im)
    [ (0x3f7ffffd7eb41a81L, 0xbe5afc6cb8b38f35L);
      (0x3f7ffffd7fc6fbe6L, 0xbe5aeeee82f17bdfL);
      (0x3f7ffffd81ecbea1L, 0xbe5ad3f2176b8583L) ]

let () =
  Alcotest.run "krylov"
    [
      ( "gmres",
        [
          Alcotest.test_case "dense system" `Quick test_gmres_dense_system;
          Alcotest.test_case "allocation independent of n" `Quick
            test_gmres_allocation_independent_of_n;
        ] );
      ( "parity",
        QCheck_alcotest.to_alcotest prop_floquet_parity
        :: QCheck_alcotest.to_alcotest prop_pnoise_parity
        :: [
             Alcotest.test_case "sigma forward = adjoint" `Quick
               test_sigma_forward_adjoint_parity;
             Alcotest.test_case "no dense monodromy on krylov path" `Quick
               test_krylov_path_forms_no_dense_monodromy;
           ] );
      ( "stagnation",
        [
          Alcotest.test_case "pss fallback bit-identical" `Quick
            test_pss_stagnation_fallback;
          Alcotest.test_case "lptv fallback bit-identical" `Quick
            test_lptv_stagnation_fallback;
        ] );
      ( "bits",
        [ Alcotest.test_case "dac64 pnoise" `Quick test_bits_dac64_pnoise ] );
    ]
