(* varsim — command-line front end.

   Subcommands:
     varsim run <deck.sp>        run every analysis card in a deck
     varsim op <deck.sp>         DC operating point only
     varsim dcmatch <deck.sp> -o out
     varsim mismatch <deck.sp> -o out --period 4n
     varsim pnoise <deck.sp> -o out --period 4n [--harmonic N]
     varsim demo [comparator|logicpath|ringosc]   built-in benchmarks
     varsim sweep <spec>         supervised characterization sweep
                                 (crash-isolated workers, resumable
                                 journal; docs/robustness.md)
     varsim worker ...           internal: one supervised sweep point
     varsim serve                job daemon on a Unix socket with a
                                 content-addressed result/state cache
                                 (docs/serving.md)
     varsim submit <deck.sp>     send a deck to a running daemon
     varsim top                  live one-screen daemon view (or --prom:
                                 dump the Prometheus text exposition)
     varsim version              version / build / default-knob provenance

   Exit codes: 0 success; 123 typed analysis/setup failure; 124 budget
   expiry (partial artifacts are still written first); 3 a sweep that
   completed but has failed points; 2 a usage error.

   Global-ish options shared by the solver-heavy subcommands:
     --domains N                 OCaml domains for the LPTV/PNOISE passes
   (the linear solver follows the circuit size: docs/solver.md)

   Resilience options (docs/robustness.md):
     --budget T                  wall-clock budget (suffixes, e.g. 500m)
     --max-retries N             transient-failure retries per stage
     --strict                    fail fast: no homotopy ladder, no
                                 retries, no sparse->dense degradation

   Telemetry options (docs/observability.md):
     --metrics FILE              span tree + counters as JSON
     --trace FILE                Chrome trace-event JSON (chrome://tracing)
     --progress                  live top-level span progress on stderr

   VARSIM_FAULTS (docs/robustness.md) arms the fault-injection harness:
   a comma list of site:visit:kind[:arg] triggers, test-only. *)

open Cmdliner

let read_deck path =
  try Ok (Spice_elab.load_file path) with
  | Spice_lexer.Lex_error (ln, msg) ->
    Error (Printf.sprintf "%s:%d: lex error: %s" path ln msg)
  | Spice_parser.Parse_error (ln, msg) ->
    Error (Printf.sprintf "%s:%d: parse error: %s" path ln msg)
  | Spice_elab.Elab_error (ln, msg) ->
    Error (Printf.sprintf "%s:%d: elaboration error: %s" path ln msg)
  | Sys_error msg -> Error msg

let deck_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"DECK"
         ~doc:"SPICE-style netlist file")

let domains_arg =
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N"
         ~doc:"Number of OCaml domains for the parallel LPTV/PNOISE passes \
               (results are bit-identical for any value)")

(* ------------------------------------------------------------------ *)
(* resilience options *)

type res_opts = {
  budget_s : float option;
  max_retries : int;
  strict : bool;
}

let budget_conv =
  Arg.conv
    ~docv:"T"
    ( (fun s ->
        match Spice_lexer.parse_number s with
        | Some v when v > 0.0 ->
          Ok v
        | Some _ | None ->
          Error (`Msg "expected a positive time, e.g. 30 or 500m")),
      fun ppf v -> Format.fprintf ppf "%g" v )

let budget_arg =
  Arg.(value & opt (some budget_conv) None & info [ "budget" ] ~docv:"T"
         ~doc:"Wall-clock budget in seconds (suffixes allowed, e.g. \
               $(b,500m)).  An analysis that exceeds it stops \
               cooperatively, flushes whatever partial artifacts were \
               requested, reports a structured timeout and exits 124")

let res_term =
  let budget = budget_arg in
  let max_retries =
    Arg.(value & opt int 2 & info [ "max-retries" ] ~docv:"N"
           ~doc:"Bounded re-attempts per failed stage of the fallback \
                 ladder (docs/robustness.md)")
  in
  let strict =
    Arg.(value & flag & info [ "strict" ]
           ~doc:"Fail fast on the first non-convergence: no homotopy \
                 ladder, no retries, no sparse->dense degradation")
  in
  let mk budget_s max_retries strict = { budget_s; max_retries; strict } in
  Term.(const mk $ budget $ max_retries $ strict)

let policy_of r = Retry.of_cli ~max_retries:r.max_retries ~strict:r.strict

let budget_of r ~label =
  Option.map (fun s -> Budget.make ~wall_s:s ~label ()) r.budget_s

(* ------------------------------------------------------------------ *)
(* cache options (docs/serving.md) *)

let cache_dir_arg =
  Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR"
         ~doc:"Durable content-addressed cache directory (created as \
               needed).  Re-running an identical deck with identical \
               knobs replays the stored result byte-identically, \
               skipping all plan and PSS work (docs/serving.md)")

let mem_cache_arg =
  Arg.(value & opt int 32 & info [ "mem-cache" ] ~docv:"N"
         ~doc:"In-memory cache capacity, in entries per tier (LRU \
               eviction)")

(* An unusable cache directory degrades to compute-through with a
   warning, never a failure: caching is an accelerator, not a
   dependency. *)
let cache_of ~dir ~mem =
  match dir with
  | None -> None
  | Some d -> (
    match
      Cache.create ~mem_capacity:mem ~dir:d ~meta:(Version.provenance ()) ()
    with
    | Ok c -> Some c
    | Error m ->
      Printf.eprintf "varsim: warning: cache disabled: %s\n%!" m;
      None)

(* ------------------------------------------------------------------ *)
(* telemetry options *)

type obs_opts = {
  metrics : string option;
  trace : string option;
  progress : bool;
}

let obs_term =
  let metrics =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write the telemetry span tree and counters as JSON to $(docv)")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace-event JSON file to $(docv) (open in \
                 chrome://tracing or Perfetto); one track per worker lane")
  in
  let progress =
    Arg.(value & flag & info [ "progress" ]
           ~doc:"Print live analysis progress to stderr")
  in
  let mk metrics trace progress = { metrics; trace; progress } in
  Term.(const mk $ metrics $ trace $ progress)

(* Run [f] under a "varsim" root span when any telemetry output was
   requested; otherwise run it with telemetry fully disabled.  The
   finally block writes the requested files even when the analysis
   raises, so a non-convergence failure still leaves a usable trace. *)
let with_obs opts f =
  let wanted = opts.metrics <> None || opts.trace <> None || opts.progress in
  if not wanted then f ()
  else begin
    Obs.enable ();
    if opts.progress then
      Obs.set_progress
        (Some
           (fun name ev ->
             match ev with
             | `Begin -> Printf.eprintf "varsim: %s ...\n%!" name
             | `End dt -> Printf.eprintf "varsim: %s done (%.3f s)\n%!" name dt));
    Fun.protect
      ~finally:(fun () ->
        Option.iter Obs.write_metrics opts.metrics;
        Option.iter Obs.write_trace opts.trace;
        Obs.set_progress None;
        Obs.disable ())
      (fun () -> Obs.root "varsim" f)
  end

(* Exit-code discipline (docs/robustness.md): a budget expiry is 124 —
   and only a budget expiry — while every other typed failure is 123.
   Both paths run after with_obs' finally block, so requested metrics /
   trace files are already flushed: a timeout never drops the partial
   artifacts. *)
let fail_exit msg =
  Printf.eprintf "varsim: %s\n%!" msg;
  exit 123

let handle_run = function
  | Ok () -> `Ok ()
  | Error (Resilient.Timed_out _ as f) ->
    Printf.eprintf "varsim: %s\n%!" (Resilient.describe f);
    exit 124
  | Error f -> fail_exit (Resilient.describe f)

(* Run an analysis under the Resilient safety net: create the budget at
   analysis start, keep failures typed for the exit-code mapping above,
   surface sparse->dense degradations as a stderr warning (never
   silent). *)
let run_resilient obs res ~label f =
  let out =
    with_obs obs (fun () ->
        let policy = policy_of res in
        let budget = budget_of res ~label in
        Resilient.run ?budget ~label (fun () -> f ~policy ~budget))
  in
  if out.Resilient.degradations > 0 then
    Printf.eprintf
      "varsim: warning: %d sparse factorization(s) degraded to the dense \
       backend\n%!"
      out.Resilient.degradations;
  if out.Resilient.krylov_fallbacks > 0 then
    Printf.eprintf
      "varsim: warning: %d GMRES wrap solve(s) stagnated and fell back to \
       the dense factorization\n%!"
      out.Resilient.krylov_fallbacks;
  out.Resilient.result

let run_cmd =
  let run path domains cache_dir mem_cache res obs =
    match read_deck path with
    | Error e -> fail_exit e
    | Ok deck -> (
      match cache_of ~dir:cache_dir ~mem:mem_cache with
      | None ->
        handle_run
          (run_resilient obs res ~label:("run " ^ path)
             (fun ~policy ~budget ->
               Spice_run.run ~domains ~policy ?budget Format.std_formatter
                 deck))
      | Some cache ->
        (* the cached path goes through the typed job API so a hit
           replays the stored bytes verbatim (byte-identical output) *)
        handle_run
          (match
             run_resilient obs res ~label:("run " ^ path)
               (fun ~policy ~budget ->
                 Spice_job.submit
                   (Spice_job.request ~domains ~policy ?budget ~cache deck))
           with
           | Ok o ->
             print_string o.Spice_job.output;
             flush stdout;
             if o.Spice_job.cache_hit then
               Printf.eprintf "varsim: cache hit (%s)\n%!"
                 o.Spice_job.fingerprint;
             Ok ()
           | Error _ as e -> e))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run every analysis card in a netlist deck")
    Term.(ret (const run $ deck_arg $ domains_arg $ cache_dir_arg
               $ mem_cache_arg $ res_term $ obs_term))

let op_cmd =
  let run path res obs =
    match read_deck path with
    | Error e -> fail_exit e
    | Ok deck ->
      handle_run
        (run_resilient obs res ~label:("op " ^ path)
           (fun ~policy ~budget ->
             Spice_run.run_analysis ~policy ?budget Format.std_formatter deck
               Spice_ast.A_op))
  in
  Cmd.v
    (Cmd.info "op" ~doc:"DC operating point of a deck")
    Term.(ret (const run $ deck_arg $ res_term $ obs_term))

let output_arg =
  Arg.(required & opt (some string) None & info [ "o"; "output" ]
         ~docv:"NODE" ~doc:"Output node")

let dcmatch_cmd =
  let run path output domains res obs =
    match read_deck path with
    | Error e -> fail_exit e
    | Ok deck ->
      handle_run
        (run_resilient obs res ~label:("dcmatch " ^ path)
           (fun ~policy ~budget ->
             Spice_run.run_analysis ~domains ~policy ?budget
               Format.std_formatter deck (Spice_ast.A_dc_match { output })))
  in
  Cmd.v
    (Cmd.info "dcmatch"
       ~doc:"Classical DC match analysis (sigma of a DC node voltage)")
    Term.(ret (const run $ deck_arg $ output_arg $ domains_arg $ res_term
               $ obs_term))

let yield_cmd =
  let above_arg =
    Arg.(value & opt (some float) None & info [ "above" ] ~docv:"V"
           ~doc:"Fail when the output exceeds $(docv)")
  in
  let below_arg =
    Arg.(value & opt (some float) None & info [ "below" ] ~docv:"V"
           ~doc:"Fail when the output is under $(docv)")
  in
  let n_arg =
    Arg.(value & opt int 4096 & info [ "n" ] ~docv:"N"
           ~doc:"Sample cap: stop after $(docv) measured samples even if \
                 the FOM target is not reached")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Monte-Carlo seed (equal seeds give byte-identical reports, \
                 for any --domains)")
  in
  let batch_arg =
    Arg.(value & opt int 64 & info [ "batch" ] ~docv:"B"
           ~doc:"Samples per batch; the stopping rule is evaluated only at \
                 batch boundaries")
  in
  let fom_arg =
    Arg.(value & opt float 0.1 & info [ "fom" ] ~docv:"F"
           ~doc:"Target figure of merit (relative standard error of \
                 P_fail)")
  in
  let scale_arg =
    Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"S"
           ~doc:"Mean-shift scale multiplier (< 1 backs the shift off, \
                 > 1 overshoots the linear most-probable-failure point)")
  in
  let divergence_arg =
    Arg.(value & opt float 2.0 & info [ "divergence" ] ~docv:"F"
           ~doc:"Divergence diagnostic: flag when the linear-model tail \
                 falls outside the measured CI widened by $(docv) on both \
                 sides")
  in
  let no_shift_arg =
    Arg.(value & flag & info [ "no-shift" ]
           ~doc:"Plain (unshifted) Monte Carlo — the reference the \
                 importance-sampling speedup is measured against")
  in
  let run path output above below n seed batch fom scale divergence no_shift
      domains cache_dir mem_cache res obs =
    if above = None && below = None then
      fail_exit "yield: need a failure bound (--above and/or --below)";
    match read_deck path with
    | Error e -> fail_exit e
    | Ok deck -> (
      let card =
        Spice_ast.A_yield
          { output; above; below; n; seed; batch; target_fom = fom; scale;
            divergence; shift = not no_shift }
      in
      (* replace the deck's card list with the one requested card so the
         cached path fingerprints exactly this computation *)
      let deck = { deck with Spice_elab.analyses = [ (0, card) ] } in
      let label = "yield " ^ path in
      match cache_of ~dir:cache_dir ~mem:mem_cache with
      | None ->
        handle_run
          (run_resilient obs res ~label (fun ~policy ~budget ->
               Spice_run.run_analysis ~domains ~policy ?budget
                 Format.std_formatter deck card))
      | Some cache ->
        handle_run
          (match
             run_resilient obs res ~label (fun ~policy ~budget ->
                 Spice_job.submit
                   (Spice_job.request ~domains ~policy ?budget ~cache deck))
           with
           | Ok o ->
             print_string o.Spice_job.output;
             flush stdout;
             if o.Spice_job.cache_hit then
               Printf.eprintf "varsim: cache hit (%s)\n%!"
                 o.Spice_job.fingerprint;
             Ok ()
           | Error _ as e -> e))
  in
  Cmd.v
    (Cmd.info "yield"
       ~doc:"Estimate the failure probability of a spec on a DC node \
             voltage by linear-model-guided importance sampling \
             (docs/yield.md)")
    Term.(ret (const run $ deck_arg $ output_arg $ above_arg $ below_arg
               $ n_arg $ seed_arg $ batch_arg $ fom_arg $ scale_arg
               $ divergence_arg $ no_shift_arg $ domains_arg $ cache_dir_arg
               $ mem_cache_arg $ res_term $ obs_term))

let period_arg =
  let period_conv =
    Arg.conv
      ~docv:"T"
      ( (fun s ->
          match Spice_lexer.parse_number s with
          | Some v when v > 0.0 -> Ok v
          | Some _ | None -> Error (`Msg "expected a positive time, e.g. 4n")),
        fun ppf v -> Format.fprintf ppf "%g" v )
  in
  Arg.(required & opt (some period_conv) None & info [ "period" ] ~docv:"T"
         ~doc:"PSS fundamental period (suffixes allowed, e.g. 4n)")

let mismatch_cmd =
  let run path output period domains res obs =
    match read_deck path with
    | Error e -> fail_exit e
    | Ok deck ->
      handle_run
        (run_resilient obs res ~label:("mismatch " ^ path)
           (fun ~policy ~budget ->
             Spice_run.run_analysis ~domains ~policy ?budget
               Format.std_formatter deck
               (Spice_ast.A_mismatch_dc { output; period })))
  in
  Cmd.v
    (Cmd.info "mismatch"
       ~doc:"Pseudo-noise mismatch analysis of a DC-like performance \
             (PSS + LPTV baseband)")
    Term.(ret (const run $ deck_arg $ output_arg $ period_arg $ domains_arg
               $ res_term $ obs_term))

let pnoise_cmd =
  let harmonic_arg =
    Arg.(value & opt int 0 & info [ "harmonic" ] ~docv:"N"
           ~doc:"Sideband harmonic index (0 = baseband)")
  in
  let run path output period harmonic domains res obs =
    match read_deck path with
    | Error e -> fail_exit e
    | Ok deck ->
      handle_run
        (match
           run_resilient obs res ~label:("pnoise " ^ path)
             (fun ~policy ~budget ->
               let circuit = deck.Spice_elab.circuit in
               let ctx =
                 Analysis.prepare ~domains ~policy ?budget circuit ~period
               in
               Pnoise.analyze ~domains ~policy ?budget ctx.Analysis.lptv
                 ~output ~harmonic ~sources:ctx.Analysis.sources)
         with
         | Ok sb ->
           Format.printf "%a@." Pnoise.pp_sideband sb;
           Ok ()
         | Error _ as e -> e)
  in
  Cmd.v
    (Cmd.info "pnoise"
       ~doc:"Periodic pseudo-noise analysis: mismatch sideband PSD at an \
             output node, with per-source contributions")
    Term.(ret (const run $ deck_arg $ output_arg $ period_arg $ harmonic_arg
               $ domains_arg $ res_term $ obs_term))

let demo_cmd =
  let demos = [ ("comparator", `Comparator); ("logicpath", `Logicpath);
                ("ringosc", `Ringosc) ] in
  let which =
    Arg.(value & pos 0 (enum demos) `Ringosc & info [] ~docv:"DEMO"
           ~doc:"comparator | logicpath | ringosc")
  in
  let run which domains res obs =
    handle_run
      (run_resilient obs res ~label:"demo" (fun ~policy ~budget ->
           match which with
           | `Comparator ->
             let params = Strongarm.default_params in
             let circuit = Strongarm.testbench ~params () in
             let ctx =
               Analysis.prepare ~steps:400 ~domains ~policy ?budget circuit
                 ~period:params.Strongarm.clk_period
             in
             Format.printf "%a@." Report.pp
               (Analysis.dc_variation ctx ~output:Strongarm.vos_node)
           | `Logicpath ->
             let lp = Logic_path.build Logic_path.X_first in
             let ctx =
               Analysis.prepare ~steps:800 ~domains ~policy ?budget
                 lp.Logic_path.circuit ~period:lp.Logic_path.period
             in
             let crossing =
               { Analysis.edge = Waveform.Falling;
                 threshold = lp.Logic_path.vdd /. 2.0;
                 after = Logic_path.trigger_time lp }
             in
             let rep_a =
               Analysis.delay_variation ctx ~output:Logic_path.out_a ~crossing
             in
             let rep_b =
               Analysis.delay_variation ctx ~output:Logic_path.out_b ~crossing
             in
             Format.printf "%a@.%a@.rho(A,B) = %.3f@." Report.pp rep_a
               Report.pp rep_b
               (Correlation.coefficient rep_a rep_b)
           | `Ringosc ->
             let circuit = Ring_osc.build () in
             let rep, _ =
               Analysis.frequency_variation ~policy ?budget circuit
                 ~anchor:Ring_osc.anchor
                 ~f_guess:(Ring_osc.f_guess Ring_osc.default_params)
             in
             Format.printf "%a@." Report.pp rep))
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run a built-in benchmark circuit analysis")
    Term.(ret (const run $ which $ domains_arg $ res_term $ obs_term))

(* ------------------------------------------------------------------ *)
(* sweep: supervised characterization fan-out (docs/robustness.md) *)

let sweep_cmd =
  let spec_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SPEC"
           ~doc:"Sweep specification file (docs/robustness.md, \"Sweeps \
                 and supervision\")")
  in
  let prefix_arg =
    Arg.(value & opt string "sweep" & info [ "o"; "out" ] ~docv:"PREFIX"
           ~doc:"Artifact prefix: writes $(docv).csv, $(docv).json and the \
                 resume journal $(docv).journal")
  in
  let isolation_conv =
    Arg.conv
      ~docv:"ISO"
      ( (fun s ->
          match Sweep_supervisor.isolation_of_string s with
          | Some i -> Ok i
          | None -> Error (`Msg "expected process, domain or auto")),
        fun ppf i ->
          Format.pp_print_string ppf (Sweep_supervisor.isolation_to_string i) )
  in
  let isolation_arg =
    Arg.(value & opt isolation_conv Sweep_supervisor.Auto_iso
         & info [ "isolation" ] ~docv:"ISO"
             ~doc:"Point isolation: $(b,process) (supervised worker \
                   processes, full crash isolation), $(b,domain) \
                   (in-process pool lanes) or $(b,auto) (domains for the \
                   cheap direct-DC analyses, processes otherwise)")
  in
  let jobs_arg =
    Arg.(value & opt int (Domain_pool.default_lanes ())
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Concurrent workers / pool lanes (default: one per core)")
  in
  let resume_arg =
    Arg.(value & flag & info [ "resume" ]
           ~doc:"Skip points already recorded in the journal from an \
                 earlier (interrupted) run of the same spec; the final \
                 artifacts are bit-identical to an uninterrupted run's")
  in
  let grace_arg =
    Arg.(value & opt float 1.0 & info [ "grace" ] ~docv:"S"
           ~doc:"Seconds between SIGTERM and SIGKILL when a worker \
                 overruns its point budget")
  in
  let point_budget_arg =
    Arg.(value & opt (some budget_conv) None & info [ "point-budget" ]
           ~docv:"T"
           ~doc:"Per-point wall budget (overrides the spec); an \
                 overrunning worker is killed and the point retried, \
                 then recorded as timed out")
  in
  let max_retries_arg =
    Arg.(value & opt (some int) None & info [ "max-retries" ] ~docv:"N"
           ~doc:"Re-attempts per crashed or hung point (overrides the \
                 spec; default 2)")
  in
  let run spec_path prefix isolation jobs resume grace point_budget
      max_retries budget_s obs =
    match Sweep_spec.load_file spec_path with
    | Error e -> fail_exit e
    | Ok spec ->
      let spec =
        {
          spec with
          Sweep_spec.point_budget_s =
            (match point_budget with
             | Some _ -> point_budget
             | None -> spec.Sweep_spec.point_budget_s);
          max_retries =
            Option.value max_retries ~default:spec.Sweep_spec.max_retries;
        }
      in
      let budget =
        Option.map (fun s -> Budget.make ~wall_s:s ~label:"sweep" ()) budget_s
      in
      let conf =
        {
          Sweep_supervisor.spec_path;
          out_prefix = prefix;
          isolation;
          jobs = (if jobs < 1 then 1 else jobs);
          resume;
          grace_s = grace;
          budget;
          progress = obs.progress;
        }
      in
      (* artifacts are written inside run (before any exit decision), and
         with_obs' finally flushes metrics/trace first: a budget expiry
         leaves both the partial CSV/JSON and the telemetry on disk *)
      (match with_obs obs (fun () -> Sweep_supervisor.run conf spec) with
       | Error e -> fail_exit e
       | Ok sum ->
         Format.printf "%a@." Sweep_supervisor.pp_summary sum;
         if sum.Sweep_supervisor.partial then exit 124
         else if
           sum.Sweep_supervisor.timed_out + sum.Sweep_supervisor.crashed
           + sum.Sweep_supervisor.failed
           > 0
         then exit 3
         else `Ok ())
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Run a characterization sweep: crash-isolated supervised \
             workers, bounded retries, a durable resume journal and \
             deterministic CSV/JSON artifacts")
    Term.(ret (const run $ spec_arg $ prefix_arg $ isolation_arg $ jobs_arg
               $ resume_arg $ grace_arg $ point_budget_arg $ max_retries_arg
               $ budget_arg $ obs_term))

let worker_cmd =
  let spec_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC"
           ~doc:"Sweep specification file")
  in
  let index_arg =
    Arg.(required & opt (some int) None & info [ "index" ] ~docv:"N"
           ~doc:"Grid index of the point to run")
  in
  let hash_arg =
    Arg.(value & opt (some string) None & info [ "hash" ] ~docv:"HEX"
           ~doc:"Expected content hash of the point (cross-checked)")
  in
  let pb_arg =
    Arg.(value & opt (some float) None & info [ "point-budget" ] ~docv:"S"
           ~doc:"Per-point wall budget in seconds")
  in
  let crash_arg =
    Arg.(value & flag & info [ "crash-now" ]
           ~doc:"Fault injection: die by SIGKILL before computing")
  in
  let telemetry_arg =
    Arg.(value & flag & info [ "telemetry" ]
           ~doc:"Ship this worker's telemetry (spans, counters, \
                 histograms) back to the supervisor as a JSON line \
                 before the result line")
  in
  let run spec_path index hash budget_s crash telemetry =
    match
      Sweep_worker.main ~crash ~telemetry ~spec_path ~index ~hash ~budget_s ()
    with
    | 0 -> `Ok ()
    | n -> exit n
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:"Internal: run one supervised sweep point and print its \
             result as a JSON line (spawned by $(b,varsim sweep))")
    Term.(ret (const run $ spec_arg $ index_arg $ hash_arg $ pb_arg
               $ crash_arg $ telemetry_arg))

(* ------------------------------------------------------------------ *)
(* serve / submit: the job daemon and its client (docs/serving.md) *)

let socket_arg =
  Arg.(value & opt string "varsim.sock" & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket path of the daemon")

let serve_cmd =
  let lanes_arg =
    Arg.(value & opt int 2 & info [ "lanes" ] ~docv:"N"
           ~doc:"Concurrent job lanes (OCaml domains); requests from \
                 different connections are scheduled round-robin across \
                 them")
  in
  let job_domains_arg =
    Arg.(value & opt int 1 & info [ "job-domains" ] ~docv:"N"
           ~doc:"Default LPTV/PNOISE domains per job (a request may \
                 override with its own $(b,domains) field)")
  in
  let log_arg =
    Arg.(value & opt (some string) None & info [ "log" ] ~docv:"FILE"
           ~doc:"Append one JSON record per finished request to $(docv) \
                 (timestamp, request id, outcome, queue wait, latency, \
                 fingerprint, cache hit)")
  in
  let run socket lanes job_domains cache_dir mem_cache log_path res obs =
    (* serve always runs with at least the in-memory cache: the second
       identical submission answering from cache is the point of the
       daemon.  --cache DIR adds the durable tier. *)
    let cache =
      match
        Cache.create ~mem_capacity:mem_cache ?dir:cache_dir
          ~meta:(Version.provenance ()) ()
      with
      | Ok c -> Some c
      | Error m ->
        Printf.eprintf "varsim serve: warning: disk cache disabled: %s\n%!" m;
        (match Cache.create ~mem_capacity:mem_cache () with
         | Ok c -> Some c
         | Error _ -> None)
    in
    let cfg =
      Serve.default_config ~lanes ~job_domains ?cache
        ?default_budget_s:res.budget_s ?log_path
        ~trace:(obs.trace <> None) socket
    in
    (* Serve.run owns Obs.enable (stats must see live counters even
       with no --metrics), so the with_obs wrapper does not apply; the
       requested files are written after the drain completes *)
    match Serve.run cfg with
    | () ->
      Option.iter Obs.write_metrics obs.metrics;
      Option.iter Obs.write_trace obs.trace;
      `Ok ()
    | exception Failure m -> fail_exit m
    | exception Unix.Unix_error (e, fn, _) ->
      fail_exit (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve analysis jobs over a Unix socket: newline-delimited \
             JSON requests, fair round-robin lanes, a content-addressed \
             plan/result cache, streaming progress events and a clean \
             SIGTERM drain (docs/serving.md)")
    Term.(ret (const run $ socket_arg $ lanes_arg $ job_domains_arg
               $ cache_dir_arg $ mem_cache_arg $ log_arg $ res_term
               $ obs_term))

let submit_cmd =
  let stats_arg =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Query daemon statistics (version, cache, live \
                 counters) instead of submitting a deck")
  in
  let deck_opt_arg =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"DECK"
           ~doc:"SPICE-style netlist file to submit")
  in
  let id_arg =
    Arg.(value & opt string "" & info [ "id" ] ~docv:"ID"
           ~doc:"Client-chosen request id echoed in the response")
  in
  let steps_arg =
    Arg.(value & opt (some int) None & info [ "steps" ] ~docv:"N"
           ~doc:"PSS grid steps (server default: 200)")
  in
  let f_offset_arg =
    Arg.(value & opt (some float) None & info [ "f-offset" ] ~docv:"HZ"
           ~doc:"Pseudo-noise offset frequency (server default: 1)")
  in
  let progress_arg =
    Arg.(value & flag & info [ "progress" ]
           ~doc:"Stream the server's phase events to stderr while the \
                 job runs")
  in
  let on_event j =
    let str k =
      match Obs_json.member k j with
      | Some (Obs_json.Str s) -> Some s
      | _ -> None
    in
    match str "phase", str "state" with
    | Some p, Some "begin" -> Printf.eprintf "varsim: %s ...\n%!" p
    | Some p, Some "end" ->
      let dt =
        match Obs_json.member "elapsed_s" j with
        | Some (Obs_json.Num v) -> v
        | _ -> 0.0
      in
      Printf.eprintf "varsim: %s done (%.3f s)\n%!" p dt
    | _ -> ()
  in
  let run socket stats deck_path id steps f_offset domains progress res =
    if stats then
      match Serve.call ~socket_path:socket Serve.stats_request with
      | Error m -> fail_exit m
      | Ok (line, _) ->
        print_endline line;
        `Ok ()
    else
      match deck_path with
      | None -> fail_exit "submit needs a DECK argument (or --stats)"
      | Some path -> (
        let deck_text =
          try In_channel.with_open_bin path In_channel.input_all
          with Sys_error m -> fail_exit m
        in
        let reqline =
          Serve.request_json ~id ?steps ?f_offset ?budget_s:res.budget_s
            ~domains ~events:progress deck_text
        in
        match
          Serve.call ~on_event:(if progress then on_event else fun _ -> ())
            ~socket_path:socket reqline
        with
        | Error m -> fail_exit m
        | Ok (_, j) -> (
          let str k =
            match Obs_json.member k j with
            | Some (Obs_json.Str s) -> Some s
            | _ -> None
          in
          (match str "output" with
           | Some o ->
             print_string o;
             flush stdout
           | None -> ());
          (match Obs_json.member "cache_hit" j with
           | Some (Obs_json.Bool true) ->
             Printf.eprintf "varsim: cache hit\n%!"
           | _ -> ());
          match Option.value (str "outcome") ~default:"failed:no outcome" with
          | "ok" -> `Ok ()
          | "degraded" ->
            Printf.eprintf
              "varsim: warning: the run degraded to fallback solvers\n%!";
            `Ok ()
          | "timed_out" ->
            Printf.eprintf "varsim: server-side budget expired\n%!";
            exit 124
          | other -> fail_exit ("server: " ^ other)))
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit a deck to a running $(b,varsim serve) daemon and \
             print the rendered result (exit codes match local runs: \
             124 on budget expiry, 123 on typed failure)")
    Term.(ret (const run $ socket_arg $ stats_arg $ deck_opt_arg $ id_arg
               $ steps_arg $ f_offset_arg $ domains_arg $ progress_arg
               $ res_term))

(* ------------------------------------------------------------------ *)
(* top: live daemon view over the stats/metrics ops
   (docs/observability.md) *)

let obj_num j k =
  match Obs_json.member k j with Some (Obs_json.Num v) -> Some v | _ -> None

let render_stats socket j =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let num k = obj_num j k in
  let i v = int_of_float (Option.value v ~default:0.0) in
  let reqs = Obs_json.member "requests" j in
  let rnum k = Option.bind reqs (fun r -> obj_num r k) in
  let metrics = Obs_json.member "metrics" j in
  let counters = Option.bind metrics (Obs_json.member "counters") in
  let gauges = Option.bind metrics (Obs_json.member "gauges") in
  let cnum k = Option.bind counters (fun c -> obj_num c k) in
  let gnum k = Option.bind gauges (fun g -> obj_num g k) in
  let quantiles k =
    match Obs_json.member k j with
    | Some q ->
      let p t =
        match obj_num q t with
        | Some v -> Printf.sprintf "%.3gms" (v *. 1e3)
        | None -> "-"
      in
      Printf.sprintf "p50 %-9s p90 %-9s p99 %s" (p "p50") (p "p90") (p "p99")
    | None -> "-"
  in
  add "varsim top — %s   uptime %.1fs\n" socket
    (Option.value (num "uptime_s") ~default:0.0);
  add "lanes      %d busy / %d   queue depth %d\n" (i (num "lanes_busy"))
    (i (num "lanes"))
    (i (num "queue_depth"));
  let ok = i (rnum "ok") in
  add "requests   %d ok, %d failed, %d timed out\n" ok (i (rnum "failed"))
    (i (rnum "timed_out"));
  add "latency    %s\n" (quantiles "latency_s");
  add "queue-wait %s\n" (quantiles "queue_s");
  let hits = i (cnum "serve.requests.cache_hits") in
  add "cache      %d/%d hits%s\n" hits ok
    (if ok > 0 then
       Printf.sprintf " (%.1f%%)" (100.0 *. float_of_int hits /. float_of_int ok)
     else "");
  add "gc         heap %.3gMw  minor %d  major %d\n"
    (Option.value (gnum "gc.heap_words") ~default:0.0 /. 1e6)
    (i (gnum "gc.minor_collections"))
    (i (gnum "gc.major_collections"));
  Buffer.contents b

let top_cmd =
  let interval_arg =
    Arg.(value & opt float 1.0 & info [ "interval" ] ~docv:"S"
           ~doc:"Refresh period in seconds")
  in
  let once_arg =
    Arg.(value & flag & info [ "once" ]
           ~doc:"Render one snapshot and exit (no screen clearing)")
  in
  let prom_arg =
    Arg.(value & flag & info [ "prom" ]
           ~doc:"Print the daemon's raw Prometheus text exposition \
                 (the $(b,metrics) op) and exit — for scrapers and CI")
  in
  let run socket interval once prom =
    if prom then
      match Serve.call ~socket_path:socket Serve.metrics_request with
      | Error m -> fail_exit m
      | Ok (_, j) -> (
        match Obs_json.member "text" j with
        | Some (Obs_json.Str text) ->
          print_string text;
          flush stdout;
          `Ok ()
        | _ -> fail_exit "malformed metrics response (no text field)")
    else
      let rec loop () =
        match Serve.call ~socket_path:socket Serve.stats_request with
        | Error m -> fail_exit m
        | Ok (_, j) ->
          if not once then print_string "\027[2J\027[H";
          print_string (render_stats socket j);
          flush stdout;
          if once then `Ok ()
          else begin
            Unix.sleepf (if interval < 0.1 then 0.1 else interval);
            loop ()
          end
      in
      loop ()
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live one-screen view of a running $(b,varsim serve) daemon: \
             lane utilization, queue depth, request-latency quantiles, \
             cache hit rate and GC stats (docs/observability.md)")
    Term.(ret (const run $ socket_arg $ interval_arg $ once_arg $ prom_arg))

let version_cmd =
  let run () = Format.printf "%a@." Version.pp () in
  Cmd.v
    (Cmd.info "version"
       ~doc:"Print version, git build, OCaml version and the default \
             engine knobs (the provenance stamped into cache entries \
             and serve responses)")
    Term.(const run $ const ())

let main =
  Cmd.group
    (Cmd.info "varsim" ~version:Version.version
       ~doc:"Transient mismatch variation analysis via pseudo-noise LPTV \
             simulation")
    [ run_cmd; op_cmd; dcmatch_cmd; yield_cmd; mismatch_cmd; pnoise_cmd;
      demo_cmd; sweep_cmd; worker_cmd; serve_cmd; submit_cmd; top_cmd;
      version_cmd ]

(* Cmd.eval would exit 124 on a usage error, the status reserved for
   budget expiry (docs/robustness.md): usage errors exit 2 instead *)
let () =
  Faultsim.arm_env ();
  exit
    (match Cmd.eval_value main with
     | Ok (`Ok () | `Version | `Help) -> 0
     | Error (`Parse | `Term) -> 2
     | Error `Exn -> Cmd.Exit.internal_error)
