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

(* a built-in cell's parameters at a point: its defaults with each
   assignment its table names applied in axis order (engine axes are in
   no cell's table) *)
let cell_params table defaults point =
  List.fold_left
    (fun p (name, v) ->
      match List.assoc_opt name table with Some set -> set p v | None -> p)
    defaults point.Sweep_spec.assigns

(* ------------------------------------------------------------------ *)
(* the point body *)

let compute (spec : Sweep_spec.t) point ~policy ~budget =
  let k = knobs_of spec point in
  let circuit, period, f_guess =
    match spec.Sweep_spec.target with
    | Sweep_spec.Deck path ->
      let deck = Spice_elab.load_file path in
      (deck.Spice_elab.circuit, k.period, None)
    | Sweep_spec.Cell "mirror" ->
      let p =
        cell_params Sweep_spec.mirror_params Current_mirror.default_params
          point
      in
      (Current_mirror.build ~params:p (), k.period, None)
    | Sweep_spec.Cell "comparator" ->
      let p =
        cell_params Sweep_spec.comparator_params Strongarm.default_params point
      in
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
      let p =
        cell_params Sweep_spec.ringosc_params Ring_osc.default_params point
      in
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
     run] and [varsim serve] — one pipeline *)
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
  match Spice_run.execute ?steps:k.steps ~policy ?budget deck card with
  | Spice_run.R_op x -> ("v", x.(Circuit.node_row circuit output))
  | Spice_run.R_dc_match rep -> ("sigma", rep.Sens.sigma)
  | Spice_run.R_report rep -> ("sigma", rep.Report.sigma)
  | Spice_run.R_freq (rep, _osc) -> ("sigma", rep.Report.sigma)
  | Spice_run.R_tran _ | Spice_run.R_ac _ | Spice_run.R_noise _
  | Spice_run.R_pss _ | Spice_run.R_mc _ | Spice_run.R_yield _ ->
    assert false (* the four cards above only yield the four above *)

let run_point ?budget_s ~hash (spec : Sweep_spec.t) point =
  let label = Printf.sprintf "sweep point %d" point.Sweep_spec.id in
  let policy =
    { Retry.default with Retry.max_retries = spec.Sweep_spec.max_retries }
  in
  let budget = Option.map (fun s -> Budget.make ~wall_s:s ~label ()) budget_s in
  let out =
    Resilient.run ?budget ~label (fun () ->
        compute spec point ~policy ~budget)
  in
  let degraded = out.Resilient.degradations + out.Resilient.krylov_fallbacks in
  let entry outcome metric value =
    {
      Sweep_journal.hash;
      id = point.Sweep_spec.id;
      outcome;
      metric;
      value;
      degraded;
      attempts = 1;
      elapsed_s = out.Resilient.elapsed_s;
    }
  in
  match out.Resilient.result with
  | Ok (metric, value) ->
    entry (if degraded > 0 then "degraded" else "ok") metric (Some value)
  | Error (Resilient.Timed_out _) -> entry "timed_out" "none" None
  | Error f -> entry ("failed:" ^ Resilient.describe f) "none" None

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
        let entry =
          if telemetry then
            Obs.root "worker" (fun () ->
                run_point ?budget_s ~hash:computed spec point)
          else run_point ?budget_s ~hash:computed spec point
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
