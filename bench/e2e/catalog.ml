(* The metric catalogue: every end-to-end metric (names and units match
   BENCHMARK.json; the smoke test holds them together) and every
   per-layer metric, with the rule that derives it from a traced run's
   span tree, counters and gauges. *)

type better = Higher | Lower

let workloads =
  [ "corpus-cold"; "large-sigma"; "yield-sram"; "serve-mixed"; "sweep-process" ]

(* Emitted by every workload; these are what BENCHMARK.json gates. *)
let end_to_end =
  [ ("throughput_jobs_s", "jobs/s", Higher);
    ("latency_p50_s", "s", Lower);
    ("latency_p90_s", "s", Lower);
    ("cpu_s_per_job", "s", Lower);
    ("setup_s", "s", Lower);
    ("peak_rss_mb", "MiB", Lower) ]

(* Meaningful on some workloads only, so reported in the result files
   and compared by [--compare] (10% bound) but not on a run's last
   line, which carries the same metrics on every workload. *)
let workload_specific =
  [ ("latency_p99_s", "s", Lower);
    ("hit_latency_p50_s", "s", Lower);
    ("miss_latency_p50_s", "s", Lower);
    ("batch_wall_s", "s", Lower);
    ("samples_per_s", "samples/s", Higher);
    ("failed_ratio", "ratio", Lower) ]

let workload_specific_bound = 0.10

(* ------------------------------------------------------------ layers *)

(* span name -> the self-time metric of its layer; a span not named
   here is charged to other.self_s.  Sub-steps go to their layer: the
   DC ladder rungs to dc.solve, the monodromy and wrap to lptv.build,
   Monte_carlo to the yield layer.  Spice_run.execute opens one span per
   card (spice.op, spice.mismatch_dc, ...): those and the bench's own
   spice.execute wrapper make up spice.execute.self_s. *)
let self_metric = function
  | ( "spice.load" | "spice.fingerprint" | "spice.render" | "version.provenance"
    | "dc.solve" | "tran.run" | "pss.solve" | "pss.sweep" | "pss.krylov"
    | "pss_osc.solve" | "lptv.build" | "lptv.factor_steps" | "pnoise.analyze"
    | "yield.estimate" ) as s ->
    Some (s ^ ".self_s")
  | s when String.starts_with ~prefix:"dc.rung." s -> Some "dc.solve.self_s"
  | "pss_osc.warmup" -> Some "pss_osc.solve.self_s"
  | "lptv.phi" | "lptv.wrap" -> Some "lptv.build.self_s"
  | "pnoise.sources" | "pnoise.sigma_waveform" -> Some "pnoise.analyze.self_s"
  | "monte_carlo.run" -> Some "yield.estimate.self_s"
  | s when String.starts_with ~prefix:"spice." s -> Some "spice.execute.self_s"
  | _ -> None

let self_metrics =
  [ "spice.load.self_s"; "spice.fingerprint.self_s"; "spice.execute.self_s";
    "spice.render.self_s"; "version.provenance.self_s"; "dc.solve.self_s";
    "tran.run.self_s"; "pss.solve.self_s"; "pss.sweep.self_s";
    "pss.krylov.self_s"; "pss_osc.solve.self_s"; "lptv.build.self_s";
    "lptv.factor_steps.self_s"; "pnoise.analyze.self_s";
    "yield.estimate.self_s"; "other.self_s" ]

(* exact work counters, reported per job; [--compare] diffs these *)
let work_counters =
  [ "dc.solves"; "newton.iterations"; "newton.failures"; "ladder.dc.damped";
    "ladder.dc.gmin"; "tran.steps"; "pss.sweep_steps";
    "pss.shooting_iterations"; "pss_osc.shooting_iterations"; "lptv.steps";
    "lptv.fact.dense"; "lptv.fact.sparse"; "pnoise.transfers";
    "linsys.fact.dense"; "linsys.fact.sparse"; "gmres.iterations";
    "gmres.restarts"; "symbolic.plan"; "linsys.splu.plans"; "yield.samples";
    "yield.batches"; "monte_carlo.samples"; "cache.disk.writes";
    "sweep.retries"; "sweep.telemetry.dropped" ]

(* hits / lookups of each cache tier *)
let hit_ratios = [ "plan"; "result"; "disk"; "state" ]

(* computed by the workload itself (0 where the layer is not used) *)
let given =
  [ ("serve.queue_s.p50", "s"); ("serve.queue_s.p90", "s");
    ("serve.hit.elapsed_s.p50", "s"); ("serve.miss.elapsed_s.p50", "s");
    ("serve.transport_s.p50", "s"); ("sweep.point.elapsed_s.p50", "s");
    ("sweep.overhead_s.mean", "s"); ("obs.overhead_ratio", "ratio");
    ("trace.coverage", "ratio"); ("gc.minor_words_per_job", "words");
    ("gc.major_collections_per_job", "count"); ("gc.top_heap_mb", "MiB") ]

let per_layer =
  List.map (fun n -> (n, "s")) self_metrics
  @ List.map (fun n -> (n, "count")) work_counters
  @ List.map (fun c -> ("cache." ^ c ^ ".hit_ratio", "ratio")) hit_ratios
  @ [ ("linsys.splu.nnz_lu", "count") ]
  @ given

let unit_of name =
  List.find_map
    (fun (n, u) -> if n = name then Some u else None)
    (List.map (fun (n, u, _) -> (n, u)) (end_to_end @ workload_specific)
    @ per_layer)

(* What one traced run observed, in totals over its traced jobs. *)
type trace = {
  jobs : int;
  selfs : (string * float) list;  (** span name -> total self seconds *)
  root_wall : float;  (** total wall of the per-job root spans (0: none) *)
  root_self : float;  (** the part of it no child span covers *)
  counters : (string * float) list;
  gauges : (string * float) list;
  computed : (string * float) list;  (** values of [given] metrics *)
}

let empty_trace =
  { jobs = 0; selfs = []; root_wall = 0.0; root_self = 0.0; counters = [];
    gauges = []; computed = [] }

let get kvs k = Option.value (List.assoc_opt k kvs) ~default:0.0

let layer_values (t : trace) =
  let per_job v = if t.jobs > 0 then v /. float_of_int t.jobs else 0.0 in
  let charged = Hashtbl.create 16 in
  List.iter
    (fun (span, s) ->
      let m = Option.value (self_metric span) ~default:"other.self_s" in
      Hashtbl.replace charged m
        (s +. Option.value (Hashtbl.find_opt charged m) ~default:0.0))
    t.selfs;
  let ratio c =
    let h = get t.counters ("cache." ^ c ^ ".hits") in
    let lookups = h +. get t.counters ("cache." ^ c ^ ".misses") in
    if lookups > 0.0 then h /. lookups else 0.0
  in
  let computed =
    if t.root_wall > 0.0 then
      ("trace.coverage", 1.0 -. (t.root_self /. t.root_wall)) :: t.computed
    else t.computed
  in
  List.map
    (fun m ->
      (m, per_job (Option.value (Hashtbl.find_opt charged m) ~default:0.0)))
    self_metrics
  @ List.map (fun c -> (c, per_job (get t.counters c))) work_counters
  @ List.map (fun c -> ("cache." ^ c ^ ".hit_ratio", ratio c)) hit_ratios
  @ [ ("linsys.splu.nnz_lu", get t.gauges "linsys.splu.nnz_lu") ]
  @ List.map (fun (n, _) -> (n, get computed n)) given

(* ------------------------------------------------------- span trees *)

(* self time = a span's wall minus what its children cover *)
let rec add_selfs tbl (t : Obs.span_tree) =
  let covered =
    List.fold_left (fun a (c : Obs.span_tree) -> a +. c.wall_s) 0.0 t.children
  in
  let prev = Option.value (Hashtbl.find_opt tbl t.span_name) ~default:0.0 in
  Hashtbl.replace tbl t.span_name (prev +. Float.max 0.0 (t.wall_s -. covered));
  List.iter (add_selfs tbl) t.children

let rec tree_of_json j =
  {
    Obs.span_name = Option.value (Doc.str_field "name" j) ~default:"?";
    calls = int_of_float (Option.value (Doc.num_field "calls" j) ~default:0.0);
    wall_s = Option.value (Doc.num_field "wall_s" j) ~default:0.0;
    children =
      (match Doc.field "children" j with
       | Some (Obs_json.List cs) -> List.map tree_of_json cs
       | _ -> []);
  }
