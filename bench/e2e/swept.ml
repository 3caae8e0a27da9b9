(* sweep-process: `varsim sweep --isolation process --jobs 2` over a
   64-point comparator mismatch grid, a fresh journal each time:
   supervised fork/exec fan-out, journal fsyncs and per-point PSS+LPTV
   on a 20-node cell, with no engine cache shared across points. *)

open Bench

(* row-major, vdd fastest: the first 4 rows are w_in = 6u, so the tiny
   and the one-point grids are prefixes of the full golden CSV *)
let spec ~w_in =
  Printf.sprintf
    "cell = comparator\nanalysis = mismatch\nsweep w_in = %s\nsweep vdd = %s\n" w_in

let full = spec ~w_in:"6u:10u:16" "1.05:1.2:4"
let tiny = spec ~w_in:"6u" "1.05:1.2:4"
let one_point = spec ~w_in:"6u" "1.05"

let golden_prefix ctx rows =
  String.split_on_char '\n' (Golden.load ctx.root "sweep.csv")
  |> List.filteri (fun i _ -> i <= rows)
  |> String.concat "\n"

let csv_rows text = List.length (String.split_on_char '\n' (String.trim text)) - 1

let check_csv ctx csv =
  let want = golden_prefix ctx (csv_rows csv) in
  if String.trim csv = String.trim want then Ok () else Error (Golden.first_diff want csv)

let write_spec ctx name text =
  let p = Filename.concat ctx.work name in
  Doc.write_file p text;
  p

(* the journal prints elapsed_s in whole milliseconds *)
let ms_quantile = Doc.quantile_rounded ~width:1e-3

(* A quantile over the grid, each point counted as its median over the
   run's sweeps.  Which points run slow in one sweep is the host's
   doing, not the grid's: the pooled p90 measured those moments and
   spread ~25% between runs of the same code. *)
let point_quantile points q =
  mix_quantile ~median:(fun vs -> ms_quantile vs 0.5) points q

(* worker processes per sweep *)
let jobs = 2

type sweep = {
  wall : float;
  cpu : float;  (** supervisor + workers, reaped *)
  elapsed : (int * float) list;  (** the journal's point id and elapsed_s *)
  rss : float;
  prefix : string;
}

(* one sweep from an empty journal; VmHWM of the supervisor is sampled
   from a second thread while this one blocks in waitpid *)
let sweep ctx t ~spec_path ~tag ~traced =
  let prefix = Filename.concat ctx.work tag in
  let obs =
    if traced then
      [ "--metrics"; prefix ^ ".metrics.json"; "--trace"; prefix ^ ".trace.json" ]
    else []
  in
  let t0 = now () and c0 = Host.children_cpu_s () in
  let pid =
    Host.spawn ~log:(Filename.concat ctx.work "children.log") ctx.varsim
      ([ "sweep"; spec_path; "-o"; prefix; "--isolation"; "process";
         "--jobs"; string_of_int jobs ]
      @ obs)
  in
  (* the first reading waits 20 ms: before its exec the child's
     VmHWM would be this process's *)
  let rss = ref nan and running = Atomic.make true in
  let sampler =
    Thread.create
      (fun () ->
        while Atomic.get running do
          Thread.delay 0.02;
          match Host.peak_rss_mib (string_of_int pid) with
          | Some v -> if Float.is_nan !rss || v > !rss then rss := v
          | None -> ()
        done)
      ()
  in
  let st = Host.wait pid in
  let wall = now () -. t0 in
  let cpu = Host.children_cpu_s () -. c0 in
  Atomic.set running false;
  Thread.join sampler;
  let elapsed =
    match Doc.lines (prefix ^ ".journal") with
    | ls ->
      List.filter_map
        (fun l ->
          match Obs_json.parse l with
          | j -> (
            match (Doc.num_field "id" j, Doc.num_field "elapsed_s" j) with
            | Some id, Some e -> Some (int_of_float id, e)
            | _ -> None)
          | exception Obs_json.Parse_error _ -> None)
        ls
    | exception Sys_error _ -> []
  in
  let ok =
    if not (Host.status_ok st) then Error ("varsim sweep: " ^ Host.describe_status st)
    else
      match Doc.read_file (prefix ^ ".csv") with
      | csv -> check_csv ctx csv
      | exception Sys_error m -> Error m
  in
  (* one verdict per point: the CSV stands or falls as a whole *)
  for _ = 1 to max 1 (List.length elapsed) do record t tag ok done;
  { wall; cpu; elapsed; rss = !rss; prefix }

let cleanup s =
  List.iter
    (fun ext -> try Sys.remove (s.prefix ^ ext) with Sys_error _ -> ())
    [ ".csv"; ".json"; ".journal" ]

let run ctx =
  let t = tally () in
  let probe_spec = write_spec ctx "one-point.spec" one_point in
  let setup =
    List.init ctx.probes (fun i ->
        let tag = Printf.sprintf "probe%d" i in
        let s = sweep ctx t ~spec_path:probe_spec ~tag ~traced:false in
        cleanup s;
        s.wall)
  in
  let spec_path = write_spec ctx "grid.spec" (if ctx.tiny then tiny else full) in
  let sweeps = ref [] and traced_sweeps = ref [] in
  let selfs = Hashtbl.create 32 and counters = Hashtbl.create 64 in
  let gauges = ref [] in
  rounds ~seconds:ctx.seconds ~min_rounds:(if ctx.trace then 2 else 1) (fun r ->
         let traced = ctx.trace && r mod 2 = 0 in
         let s = sweep ctx t ~spec_path ~tag:(Printf.sprintf "sweep%d" r) ~traced in
         if traced then begin
           traced_sweeps := s :: !traced_sweeps;
           (match Obs_json.parse (Doc.read_file (s.prefix ^ ".metrics.json")) with
            | j ->
              let root = Option.map Catalog.tree_of_json (Doc.field "root" j) in
              Option.iter
                (fun (root : Obs.span_tree) ->
                  (* per-point work is what the merged worker trees
                     record; the supervisor's own spans mostly wait *)
                  List.iter
                    (fun (c : Obs.span_tree) ->
                      if c.span_name = "worker" then Catalog.add_selfs selfs c)
                    root.children)
                root;
              let kvs k =
                match Doc.field k j with
                | Some (Obs_json.Obj kvs) ->
                  List.filter_map
                    (fun (k, v) -> match v with Obs_json.Num x -> Some (k, x) | _ -> None)
                    kvs
                | _ -> []
              in
              add_into counters (kvs "counters");
              gauges := kvs "gauges"
            | exception (Sys_error _ | Obs_json.Parse_error _) ->
              record t "sweep telemetry" (Error "no metrics file"));
           match ctx.out with
           | Some d ->
             (try
                Sys.rename (s.prefix ^ ".trace.json")
                  (Filename.concat d "sweep-process.trace.json")
              with Sys_error _ -> ())
           | None -> ()
         end
         else sweeps := s :: !sweeps;
         cleanup s;
         (try Sys.remove (s.prefix ^ ".metrics.json") with Sys_error _ -> ());
         try Sys.remove (s.prefix ^ ".trace.json") with Sys_error _ -> ());
  let all = !sweeps @ !traced_sweeps in
  let points = List.fold_left (fun a s -> a + List.length s.elapsed) 0 all in
  let elapsed = List.concat_map (fun s -> s.elapsed) !sweeps in
  let traced_elapsed = List.concat_map (fun s -> s.elapsed) !traced_sweeps in
  let rate s = float_of_int (List.length s.elapsed) /. s.wall in
  let trace =
    if not ctx.trace then None
    else
      let n = List.length traced_elapsed in
      Some
        {
          Catalog.empty_trace with
          jobs = n;
          selfs = sorted selfs;
          counters = sorted counters;
          gauges = !gauges;
          computed =
            [ ("sweep.point.elapsed_s.p50", point_quantile traced_elapsed 0.5);
              (* lane time per point outside the worker's analysis:
                 spawn, exec, runtime start, pipe protocol, journal
                 fsync (the journal's elapsed_s is the worker's own) *)
              ("sweep.overhead_s.mean",
               (List.fold_left
                  (fun a s -> a +. (float_of_int jobs *. s.wall))
                  0.0 !traced_sweeps
                -. List.fold_left (fun a (_, e) -> a +. e) 0.0 traced_elapsed)
               /. float_of_int (max 1 n));
              ("obs.overhead_ratio",
               (point_quantile traced_elapsed 0.5 /. point_quantile elapsed 0.5)
               -. 1.0) ];
        }
  in
  {
    tally = t;
    e2e =
      [ ("throughput_jobs_s", Doc.median (List.map rate all)) ]
      (* the kinds are the grid's points *)
      @ [ ("latency_p50_s", point_quantile (elapsed @ traced_elapsed) 0.5);
          ("latency_p90_s", point_quantile (elapsed @ traced_elapsed) 0.9) ]
      @ [ ("cpu_s_per_job",
           Doc.median
             (List.map
                (fun s -> s.cpu /. float_of_int (max 1 (List.length s.elapsed)))
                all));
          ("setup_s", Doc.median setup);
          ("peak_rss_mb", Doc.median (List.map (fun s -> s.rss) all)) ];
    specific =
      [ ("batch_wall_s", Doc.median (List.map (fun s -> s.wall) all));
        ("failed_ratio", failed_ratio t) ];
    samples =
      [ ("latency_p50_s", points); ("latency_p90_s", points);
        ("setup_s", List.length setup) ];
    trace;
  }
