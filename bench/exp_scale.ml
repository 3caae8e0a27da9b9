(* Matrix-free scaling: dense vs sparse vs krylov LPTV build on the
   ≥500-unknown DAC-string deck (Dac_string.scale_params, 513 MNA
   unknowns), written to BENCH_scale.json.

   The PSS is solved once (sparse + krylov — it is not what is being
   measured) and shared by every mode, so the comparison isolates the
   periodic-wrap treatment, one Linsys.solver regime per mode:

     dense   Dense   (explicit Φ(ω), dense factor)
     sparse  Sparse  (sparse steps, dense wrap)
     krylov  Krylov  (sparse steps, matrix-free wrap, GMRES)

   Gates (the repo's acceptance criteria for the matrix-free path):
   - every mode reads the same total_psd within 1e-9 relative;
   - krylov beats the dense build by >= 5x at equal steps;
   - the krylov path allocates no dense monodromy anywhere, asserted on
     the "pss.monodromy.dense"/"lptv.phi.dense" counters of an
     instrumented pass. *)

type case = {
  mode : string;
  size : int;
  steps : int;
  n_sources : int;
  build_s : float;
  analyze_s : float;
  sigma_s : float;
  total_psd : float;
}

let modes =
  [ ("dense", Linsys.Dense); ("sparse", Linsys.Sparse);
    ("krylov", Linsys.Krylov) ]

let measure ~pss ~output ~sources_of ~mode ~solver =
  let lptv, build_s =
    Util.timed (fun () -> Lptv.build ~solver pss ~f_offset:1.0)
  in
  let sources = sources_of lptv in
  let sb, analyze_s =
    Util.timed (fun () -> Pnoise.analyze lptv ~output ~harmonic:0 ~sources)
  in
  (* the Fig. 8 σ(t) envelope: one adjoint sample per grid point
     (sources ≫ steps picks the adjoint reading), each a wrap solve +
     backward recurrence *)
  let _, sigma_s =
    Util.timed (fun () -> Pnoise.sigma_waveform lptv ~output ~sources)
  in
  Format.printf "  %7s %10.3f %10.3f %10.3f %14.6e@." mode build_s analyze_s
    sigma_s sb.Pnoise.total_psd;
  {
    mode;
    size = Circuit.size pss.Pss.circuit;
    steps = pss.Pss.steps;
    n_sources = Array.length sources;
    build_s;
    analyze_s;
    sigma_s;
    total_psd = sb.Pnoise.total_psd;
  }

let json_of_case c =
  Printf.sprintf
    "    {\"mode\": %S, \"size\": %d, \"steps\": %d, \"sources\": %d, \
     \"build_s\": %.6f, \"analyze_s\": %.6f, \"sigma_s\": %.6f, \
     \"total_psd\": %.17g}"
    c.mode c.size c.steps c.n_sources c.build_s c.analyze_s c.sigma_s
    c.total_psd

let write_json ~path ~host_cores ~speedup cases =
  let oc = open_out path in
  output_string oc "{\n";
  Printf.fprintf oc "  \"bench\": \"scale\",\n";
  Printf.fprintf oc "  \"size\": %d,\n" (List.hd cases).size;
  Printf.fprintf oc "  \"host_cores\": %d,\n" host_cores;
  Printf.fprintf oc "  \"krylov_build_speedup_vs_dense\": %.2f,\n" speedup;
  Printf.fprintf oc "  \"psd_parity_tol\": 1e-9,\n";
  output_string oc "  \"cases\": [\n";
  output_string oc (String.concat ",\n" (List.map json_of_case cases));
  output_string oc "\n  ]\n}\n";
  close_out oc;
  Format.printf "@.wrote %s@." path

let run ~quick =
  Util.section
    "SCALE: dense vs sparse vs krylov periodic wrap at >= 500 unknowns";
  let params = Dac_string.scale_params in
  let freq = 1e6 in
  let circuit = Dac_string.testbench ~params ~freq () in
  let size = Circuit.size circuit in
  assert (size >= 500);
  let steps = if quick then 12 else 32 in
  let output = Dac_string.tap (params.Dac_string.codes / 2) in
  Format.printf "deck: dac_string codes=%d -> %d MNA unknowns, %d steps@."
    params.Dac_string.codes size steps;
  let pss = Pss.solve ~steps ~solver:Linsys.Krylov circuit ~period:(1.0 /. freq) in
  (* the sources only depend on the PSS; build them once through the
     first LPTV context per mode and reuse the array (the injection
     closures read shared PSS state, so this is safe across modes) *)
  let cached = ref None in
  let sources_of lptv =
    match !cached with
    | Some s -> s
    | None ->
      let s = Pnoise.mismatch_sources lptv in
      cached := Some s;
      s
  in
  Format.printf "  %7s %10s %10s %10s %14s@." "mode" "build [s]"
    "pnoise [s]" "sigma [s]" "psd";
  let cases =
    List.map
      (fun (mode, solver) -> measure ~pss ~output ~sources_of ~mode ~solver)
      modes
  in
  (* parity gate: every mode must read the same physics *)
  let reference = List.find (fun c -> c.mode = "dense") cases in
  List.iter
    (fun c ->
      let rel =
        Float.abs (c.total_psd -. reference.total_psd)
        /. Float.max 1e-300 (Float.abs reference.total_psd)
      in
      if rel > 1e-9 then
        failwith
          (Printf.sprintf "PSD parity violation: %s rel err %.3g" c.mode rel))
    cases;
  Format.printf "  parity: all modes within 1e-9 relative of dense@.";
  (* speedup gate at equal steps *)
  let krylov = List.find (fun c -> c.mode = "krylov") cases in
  let speedup = reference.build_s /. Float.max 1e-9 krylov.build_s in
  Format.printf "  krylov build speedup vs dense: %.1fx@." speedup;
  if speedup < 5.0 then
    failwith
      (Printf.sprintf "krylov build speedup %.2fx < 5x required" speedup);
  write_json ~path:"BENCH_scale.json"
    ~host_cores:(Stdlib.Domain.recommended_domain_count ())
    ~speedup cases;
  (* instrumented krylov pass: assert the matrix-free path never formed
     a dense monodromy/Φ, then leave the counter evidence next to the
     timings *)
  Util.metrics_pass ~path:"BENCH_scale_metrics.json" (fun () ->
      let pss =
        Pss.solve ~steps ~solver:Linsys.Krylov circuit ~period:(1.0 /. freq)
      in
      let lptv = Lptv.build ~solver:Linsys.Krylov pss ~f_offset:1.0 in
      let sources = Pnoise.mismatch_sources lptv in
      let sb = Pnoise.analyze lptv ~output ~harmonic:0 ~sources in
      let mono_dense = Obs.counter_value "pss.monodromy.dense" in
      let phi_dense = Obs.counter_value "lptv.phi.dense" in
      Obs.gauge "scale.dense_monodromy_allocations"
        (float_of_int (mono_dense + phi_dense));
      if mono_dense + phi_dense > 0 then
        failwith
          (Printf.sprintf
             "krylov path allocated a dense monodromy: pss=%d lptv=%d"
             mono_dense phi_dense);
      Format.printf
        "  krylov path: 0 dense monodromy allocations (gmres iters=%d)@."
        (Obs.counter_value "gmres.iterations");
      sb)
