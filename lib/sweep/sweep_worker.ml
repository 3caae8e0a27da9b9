type result = {
  outcome : [ `Ok | `Degraded | `Timed_out | `Failed of string ];
  metric : string;
  value : float option;
  degraded : int;
  elapsed_s : float;
}

(* ------------------------------------------------------------------ *)
(* point parameters: engine knobs + target overrides *)

let num_assign point name = List.assoc_opt name point.Sweep_spec.assigns

type knobs = {
  steps : int option;
  period : float option;
}

let knobs_of (spec : Sweep_spec.t) point =
  {
    steps =
      (match num_assign point "steps" with
       | Some v -> Some (int_of_float v)
       | None -> spec.Sweep_spec.steps);
    period =
      (match num_assign point "period" with
       | Some v -> Some v
       | None -> spec.Sweep_spec.period);
  }

let mirror_params point =
  let p = ref Current_mirror.default_params in
  List.iter
    (fun (name, v) ->
      let q = !p in
      match name with
      | "i_ref" -> p := { q with Current_mirror.i_ref = v }
      | "w" -> p := { q with Current_mirror.w = v }
      | "l" -> p := { q with Current_mirror.l = v }
      | "r_load" -> p := { q with Current_mirror.r_load = v }
      | "vdd" -> p := { q with Current_mirror.vdd = v }
      | _ -> ())
    point.Sweep_spec.assigns;
  !p

let comparator_params point =
  let p = ref Strongarm.default_params in
  List.iter
    (fun (name, v) ->
      let q = !p in
      match name with
      | "vdd" -> p := { q with Strongarm.vdd = v }
      | "vcm" -> p := { q with Strongarm.vcm = v }
      | "w_in" -> p := { q with Strongarm.w_in = v }
      | "w_tail" -> p := { q with Strongarm.w_tail = v }
      | "w_cross_n" -> p := { q with Strongarm.w_cross_n = v }
      | "w_cross_p" -> p := { q with Strongarm.w_cross_p = v }
      | "w_pre" -> p := { q with Strongarm.w_pre = v }
      | "w_pre_int" -> p := { q with Strongarm.w_pre_int = v }
      | "w_eq" -> p := { q with Strongarm.w_eq = v }
      | "l" -> p := { q with Strongarm.l = v }
      | "c_out" -> p := { q with Strongarm.c_out = v }
      | "clk_period" -> p := { q with Strongarm.clk_period = v }
      | "clk_transition" -> p := { q with Strongarm.clk_transition = v }
      | "gm_fb" -> p := { q with Strongarm.gm_fb = v }
      | "c_fb" -> p := { q with Strongarm.c_fb = v }
      | _ -> ())
    point.Sweep_spec.assigns;
  !p

let ringosc_params point =
  let p = ref Ring_osc.default_params in
  List.iter
    (fun (name, v) ->
      let q = !p in
      match name with
      | "vdd" -> p := { q with Ring_osc.vdd = v }
      | "wn" -> p := { q with Ring_osc.wn = v }
      | "wp" -> p := { q with Ring_osc.wp = v }
      | "l" -> p := { q with Ring_osc.l = v }
      | "c_stage" -> p := { q with Ring_osc.c_stage = v }
      | "mismatch_scale" -> p := { q with Ring_osc.mismatch_scale = v }
      | _ -> ())
    point.Sweep_spec.assigns;
  !p

(* ------------------------------------------------------------------ *)
(* the point body *)

(* One in-memory engine-state cache per worker process, shared by every
   point this process computes.  Under process isolation each worker is
   fresh, so this is inert; under domain isolation all points share it
   (and the process-global Linsys plan cache), so points that elaborate
   the same circuit with the same knobs warm-start each other —
   observable as fewer "symbolic.plan"/"pss.*" increments, never as
   different values (docs/serving.md). *)
let point_cache =
  lazy
    (match Cache.create () with Ok c -> Some c | Error _ -> None)

let compute (spec : Sweep_spec.t) point ~policy ~budget =
  let k = knobs_of spec point in
  let circuit, period, f_guess =
    match spec.Sweep_spec.target with
    | Sweep_spec.Deck path ->
      let deck = Spice_elab.load_file path in
      (deck.Spice_elab.circuit, k.period, None)
    | Sweep_spec.Cell "mirror" ->
      (Current_mirror.build ~params:(mirror_params point) (), k.period, None)
    | Sweep_spec.Cell "comparator" ->
      let p = comparator_params point in
      let period =
        (* a swept clk_period is the PSS fundamental unless the spec
           pinned an explicit period *)
        match num_assign point "period", num_assign point "clk_period" with
        | Some t, _ -> Some t
        | None, Some t -> Some t
        | None, None -> k.period
      in
      (Strongarm.testbench ~params:p (), period, None)
    | Sweep_spec.Cell "ringosc" ->
      let p = ringosc_params point in
      (Ring_osc.build ~params:p (), k.period, Some (Ring_osc.f_guess p))
    | Sweep_spec.Cell c -> invalid_arg ("Sweep_worker: unknown cell " ^ c)
  in
  let output = spec.Sweep_spec.output in
  (* fail typed, not with a bare Not_found from deep inside a reading:
     the verdict lands in the CSV as failed:<reason> *)
  (match Circuit.node circuit output with
   | _ -> ()
   | exception Not_found ->
     failwith
       (Printf.sprintf "output node %S does not exist in the target" output));
  (* each reading maps onto the analysis card the CLI would run for it,
     so sweep points go through the same typed execute path as [varsim
     run] and [varsim serve] — one pipeline, one cache seam *)
  let card =
    match spec.Sweep_spec.analysis with
    | Sweep_spec.Op -> Spice_ast.A_op
    | Sweep_spec.Dc_match -> Spice_ast.A_dc_match { output }
    | Sweep_spec.Mismatch ->
      let period =
        match period with
        | Some t -> t
        | None -> failwith "mismatch point has no period"
      in
      Spice_ast.A_mismatch_dc { output; period }
    | Sweep_spec.Freq ->
      let f_guess =
        match f_guess with
        | Some f -> f
        | None -> failwith "freq analysis needs cell = ringosc"
      in
      Spice_ast.A_mismatch_freq { anchor = output; f_guess }
  in
  let deck = { Spice_elab.title = ""; circuit; analyses = [] } in
  match
    Spice_run.execute ?steps:k.steps ~policy ?budget
      ?cache:(Lazy.force point_cache) deck card
  with
  | Spice_run.R_op x -> ("v", x.(Circuit.node_row circuit output))
  | Spice_run.R_dc_match rep -> ("sigma", rep.Sens.sigma)
  | Spice_run.R_report rep -> ("sigma", rep.Report.sigma)
  | Spice_run.R_freq (rep, _osc) -> ("sigma", rep.Report.sigma)
  | Spice_run.R_tran _ | Spice_run.R_ac _ | Spice_run.R_noise _
  | Spice_run.R_pss _ | Spice_run.R_mc _ | Spice_run.R_yield _ ->
    assert false (* the four cards above only yield the four above *)

let run_point ?budget_s (spec : Sweep_spec.t) point =
  let label = Printf.sprintf "sweep point %d" point.Sweep_spec.id in
  let policy =
    { Retry.default with Retry.max_retries = spec.Sweep_spec.max_retries }
  in
  let budget = Option.map (fun s -> Budget.make ~wall_s:s ~label ()) budget_s in
  let out =
    Resilient.run ?budget ~label (fun () -> compute spec point ~policy ~budget)
  in
  let degraded = out.Resilient.degradations + out.Resilient.krylov_fallbacks in
  match out.Resilient.result with
  | Ok (metric, value) ->
    {
      outcome = (if degraded > 0 then `Degraded else `Ok);
      metric;
      value = Some value;
      degraded;
      elapsed_s = out.Resilient.elapsed_s;
    }
  | Error (Resilient.Timed_out _) ->
    { outcome = `Timed_out; metric = "none"; value = None; degraded;
      elapsed_s = out.Resilient.elapsed_s }
  | Error f ->
    { outcome = `Failed (Resilient.describe f); metric = "none"; value = None;
      degraded; elapsed_s = out.Resilient.elapsed_s }

let outcome_string = function
  | `Ok -> "ok"
  | `Degraded -> "degraded"
  | `Timed_out -> "timed_out"
  | `Failed msg -> "failed:" ^ msg

let result_to_entry ~hash ~id ~attempts r =
  {
    Sweep_journal.hash;
    id;
    outcome = outcome_string r.outcome;
    metric = r.metric;
    value = r.value;
    degraded = r.degraded;
    attempts;
    elapsed_s = r.elapsed_s;
  }

(* ------------------------------------------------------------------ *)
(* worker-process entry *)

let protocol_error fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf "varsim worker: %s\n%!" m;
      2)
    fmt

let main ?(crash = false) ?(telemetry = false) ~spec_path ~index ~hash
    ~budget_s () =
  (* injected crash (armed parent-side, delivered here so the death is
     deterministic): die by SIGKILL before touching the point, exactly
     like an OOM kill would *)
  if crash then Unix.kill (Unix.getpid ()) Sys.sigkill;
  match Sweep_spec.load_file spec_path with
  | Error m -> protocol_error "%s: %s" spec_path m
  | Ok spec -> (
    let points = Sweep_spec.expand spec in
    if index < 0 || index >= Array.length points then
      protocol_error "point index %d out of range (grid has %d points)" index
        (Array.length points)
    else
      let point = points.(index) in
      let computed = Sweep_spec.point_hash spec point in
      match hash with
      | Some h when h <> computed ->
        protocol_error
          "point %d hash mismatch (spec edited mid-sweep?): expected %s, \
           spec yields %s"
          index h computed
      | _ ->
        (* injected hang: park forever; the supervisor's per-point
           deadline must reap us *)
        (match Faultsim.fire "sweep.worker.hang" with
         | Some _ ->
           while true do
             Unix.sleepf 3600.0
           done
         | None -> ());
        if telemetry then Obs.enable ();
        let r =
          if telemetry then
            Obs.root "worker" (fun () -> run_point ?budget_s spec point)
          else run_point ?budget_s spec point
        in
        let entry =
          result_to_entry ~hash:computed ~id:point.Sweep_spec.id ~attempts:1 r
        in
        (* telemetry first, result last: the supervisor takes the last
           non-empty line as the result, and a death mid-write can only
           ever truncate the (droppable) telemetry line *)
        if telemetry then begin
          print_string (Obs_wire.export_line ());
          print_newline ()
        end;
        print_string (Sweep_journal.entry_to_json entry);
        print_newline ();
        flush stdout;
        0)
