(* Dense-vs-sparse backend scaling: times Lptv.build + Pnoise.analyze
   on the size-parameterized DAC-string testbench as the column count
   grows, and writes BENCH_sparse.json.

   The PSS is solved once per size (dense — it is not what is being
   measured) and shared by both backends, so the comparison isolates
   the per-step factorization/solve stack.  total_psd is recorded per
   case; dense and sparse must agree to tight relative tolerance, which
   doubles as an end-to-end parity check at sizes the unit tests don't
   reach. *)

type case = {
  codes : int;
  size : int; (* MNA unknowns *)
  steps : int;
  n_sources : int;
  backend : string;
  build_s : float;
  analyze_s : float;
  total_psd : float;
}

let best_of reps f =
  let best = ref infinity in
  let last = ref None in
  for _ = 1 to reps do
    let y, dt = Util.timed f in
    if dt < !best then best := dt;
    last := Some y
  done;
  match !last with
  | Some y -> (y, !best)
  | None -> invalid_arg "best_of: reps must be >= 1"

let measure ~reps ~codes ~steps =
  let params = { Dac_string.default_params with codes } in
  let freq = 1e6 in
  let circuit = Dac_string.testbench ~params ~freq () in
  let size = Circuit.size circuit in
  let pss = Pss.solve ~steps circuit ~period:(1.0 /. freq) in
  let output = Dac_string.tap (codes / 2) in
  List.map
    (fun (backend, solver) ->
      let lptv, build_s =
        best_of reps (fun () -> Lptv.build ~solver pss ~f_offset:1.0)
      in
      let sources = Pnoise.mismatch_sources lptv in
      let sb, analyze_s =
        best_of reps (fun () ->
            Pnoise.analyze lptv ~output ~harmonic:0 ~sources)
      in
      Format.printf "  %5d %5d %8s %10.3f %10.3f %14.6e@." codes size backend
        build_s analyze_s sb.Pnoise.total_psd;
      {
        codes;
        size;
        steps;
        n_sources = Array.length sources;
        backend;
        build_s;
        analyze_s;
        total_psd = sb.Pnoise.total_psd;
      })
    [ ("dense", Linsys.Dense); ("sparse", Linsys.Sparse) ]

let json_of_case c =
  Printf.sprintf
    "    {\"codes\": %d, \"size\": %d, \"steps\": %d, \"sources\": %d, \
     \"backend\": %S, \"build_s\": %.6f, \"analyze_s\": %.6f, \
     \"total_psd\": %.17g}"
    c.codes c.size c.steps c.n_sources c.backend c.build_s c.analyze_s
    c.total_psd

let write_json ~path cases =
  let oc = open_out path in
  output_string oc "{\n";
  Printf.fprintf oc "  \"bench\": \"sparse\",\n";
  Printf.fprintf oc "  \"auto_threshold\": %d,\n" Linsys.auto_threshold;
  output_string oc "  \"cases\": [\n";
  output_string oc (String.concat ",\n" (List.map json_of_case cases));
  output_string oc "\n  ]\n}\n";
  close_out oc;
  Format.printf "@.wrote %s@." path

let run ~quick =
  Util.section "SPARSE: dense vs sparse backend on the DAC string";
  let reps = if quick then 1 else 3 in
  let steps = 48 in
  let sizes = if quick then [ 12; 40 ] else [ 16; 32; 64; 128 ] in
  Format.printf "  %5s %5s %8s %10s %10s %14s@." "codes" "mna" "backend"
    "build [s]" "pnoise [s]" "psd";
  let cases =
    List.concat_map (fun codes -> measure ~reps ~codes ~steps) sizes
  in
  (* parity gate: the two backends must read the same physics *)
  let rec pairs = function
    | d :: s :: rest when d.backend = "dense" && s.backend = "sparse" ->
      let rel =
        Float.abs (d.total_psd -. s.total_psd)
        /. Float.max 1e-300 (Float.abs d.total_psd)
      in
      if rel > 1e-9 then
        failwith
          (Printf.sprintf
             "sparse/dense PSD mismatch at codes=%d: rel err %.3g" d.codes rel);
      pairs rest
    | _ :: rest -> pairs rest
    | [] -> ()
  in
  pairs cases;
  Format.printf "  parity: sparse matches dense within 1e-9 relative@.";
  write_json ~path:"BENCH_sparse.json" cases;
  (* telemetry profile of the largest size on the sparse backend, so
     fill-in and plan-replay counters ride along with the timings *)
  let codes = List.fold_left Stdlib.max 0 sizes in
  Util.metrics_pass ~path:"BENCH_sparse_metrics.json" (fun () ->
      let params = { Dac_string.default_params with codes } in
      let freq = 1e6 in
      let circuit = Dac_string.testbench ~params ~freq () in
      let pss = Pss.solve ~steps circuit ~period:(1.0 /. freq) in
      let lptv = Lptv.build ~solver:Linsys.Sparse pss ~f_offset:1.0 in
      let sources = Pnoise.mismatch_sources lptv in
      Pnoise.analyze lptv ~output:(Dac_string.tap (codes / 2)) ~harmonic:0
        ~sources)
