(* e2e — the end-to-end performance ledger of varsim.

   Five workloads on the paths a user pays for, each in its own process:
   corpus-cold, large-sigma and yield-sram call the public job API
   in-process; serve-mixed drives `varsim serve`; sweep-process runs
   `varsim sweep`.  Every output is checked against the committed golden
   outputs.  See bench/e2e/README.md.

     e2e.exe --workload W --seed N [--seconds S] [--trace 0|1] [--out DIR]
         one run; the last stdout line is the result as one JSON object
     e2e.exe --seed N [--trace] [--out DIR]
         every workload in a child process, untraced then traced
     e2e.exe --smoke            tiny sizes; checks the metrics BENCHMARK.json names
     e2e.exe --compare A/ B/    medians, quartiles and bounds of two result sets
     e2e.exe --write-golden     regenerate bench/e2e/golden from this build *)

type mode =
  | One of string
  | All
  | Smoke
  | Probe of string
  | Compare of string * string
  | Write_golden

type opts = {
  mutable mode : mode;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool option;  (** None: untraced then traced (All) *)
  mutable out : string option;
  mutable root : string;
  mutable tiny : bool;
}

let usage () =
  prerr_endline
    "usage: e2e.exe [--workload W] [--seed N] [--seconds S] [--trace [0|1]] \
     [--out DIR] [--root DIR] | --smoke | --compare A B | \
     --write-golden";
  exit 2

let parse argv =
  let o =
    { mode = All; seed = 1; seconds = 18.0; trace = None; out = None;
      root = "."; tiny = false }
  in
  let num f s = match f s with Some v -> v | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: r ->
      if not (List.mem w Catalog.workloads) then usage ();
      o.mode <- One w;
      go r
    | "--seed" :: n :: r -> o.seed <- num int_of_string_opt n; go r
    | "--seconds" :: s :: r -> o.seconds <- num float_of_string_opt s; go r
    | "--trace" :: ("0" | "1" as v) :: r -> o.trace <- Some (v = "1"); go r
    | "--trace" :: r -> o.trace <- Some true; go r
    | "--out" :: d :: r -> o.out <- Some d; go r
    | "--root" :: d :: r -> o.root <- d; go r
    | "--tiny" :: r -> o.tiny <- true; go r
    | "--smoke" :: r -> o.mode <- Smoke; go r
    | "--probe" :: w :: r -> o.mode <- Probe w; go r
    | "--compare" :: a :: b :: r -> o.mode <- Compare (a, b); go r
    | "--write-golden" :: r -> o.mode <- Write_golden; go r
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  o

(* the build puts this executable at _build/default/bench/e2e/ *)
let varsim =
  let d = Filename.dirname in
  Filename.concat (d (d (d Sys.executable_name))) "bin/varsim.exe"

let ctx_of o ~work ~trace =
  {
    Bench.root = o.root;
    varsim;
    self = Sys.executable_name;
    work;
    seed = o.seed;
    seconds = o.seconds;
    trace;
    tiny = o.tiny;
    (* cold starts are noisy (spread 0.1-0.4 over runs), so several;
       smoke runs take one *)
    probes = (if o.tiny then 1 else 9);
    out = o.out;
  }

let benchmark_json root =
  Obs_json.parse (Doc.read_file (Filename.concat root "BENCHMARK.json"))

(* a scratch directory for one process, removed with everything in it *)
let with_work f =
  let work = Printf.sprintf "_e2e/%d" (Unix.getpid ()) in
  Doc.mkdir_p work;
  Fun.protect
    ~finally:(fun () ->
      Doc.rm_rf work;
      try Unix.rmdir "_e2e" with Unix.Unix_error _ -> ())
    (fun () -> f work)

(* ---------------------------------------------------------- one run *)

let metric_json ?samples (n, v) =
  let unit = Option.value (Catalog.unit_of n) ~default:"" in
  ( n,
    Obs_json.Obj
      ([ ("value", Doc.num v); ("unit", Doc.str unit) ]
      @ match samples with Some k -> [ ("samples", Doc.int k) ] | None -> []) )

let run_one o w =
  let trace = Option.value o.trace ~default:false in
  Option.iter Doc.mkdir_p o.out;
  Host.arm_watchdog 170;
  let before = Host.snapshot () in
  let r =
    with_work (fun work ->
        let ctx = ctx_of o ~work ~trace in
        match w with
        | "serve-mixed" -> Served.run ctx
        | "sweep-process" -> Swept.run ctx
        | w -> Inproc.run ctx w)
  in
  let after = Host.snapshot () in
  let t = r.Bench.tally in
  (* an end-to-end metric that could not be measured fails the run *)
  List.iter
    (fun (n, v) ->
      if not (Float.is_finite v) then Bench.record t n (Error "not measured"))
    r.Bench.e2e;
  let metrics =
    (match r.Bench.trace with
     | Some tr when trace -> Catalog.layer_values tr
     | Some _ | None -> r.Bench.e2e)
    |> List.map (fun (n, v) -> (n, if Float.is_finite v then v else 0.0))
  in
  let reported = metrics @ if trace then [] else r.Bench.specific in
  let correct = t.Bench.failed = 0 in
  Printf.printf "e2e %s seed=%d seconds=%g trace=%d\n" w o.seed o.seconds
    (Bool.to_int trace);
  List.iter
    (fun (n, v) ->
      Printf.printf "  %-32s %14.6g %s%s\n" n v
        (Option.value (Catalog.unit_of n) ~default:"")
        (match List.assoc_opt n r.Bench.samples with
         | Some k -> Printf.sprintf "  (n=%d)" k
         | None -> ""))
    reported;
  Printf.printf "  attempted %d, failed %d\n%!" t.Bench.attempted t.Bench.failed;
  List.iter
    (fun e -> prerr_endline ("e2e: " ^ w ^ ": " ^ e))
    (List.rev t.Bench.errors);
  let spans =
    (* self seconds per job of every span, before the per-layer grouping *)
    match r.Bench.trace with
    | Some tr when trace && tr.Catalog.jobs > 0 ->
      List.map
        (fun (n, s) -> (n, Doc.num (s /. float_of_int tr.Catalog.jobs)))
        tr.Catalog.selfs
    | Some _ | None -> []
  in
  (match o.out with
   | Some d ->
     let file = w ^ if trace then ".metrics.json" else ".result.json" in
     Doc.write_file (Filename.concat d file)
       (Doc.to_string
          (Obs_json.Obj
             [ ("workload", Doc.str w); ("seed", Doc.int o.seed);
               ("seconds", Doc.num o.seconds); ("traced", Obs_json.Bool trace);
               ("correct", Obs_json.Bool correct);
               ("attempted", Doc.int t.Bench.attempted);
               ("failed", Doc.int t.Bench.failed);
               ("errors",
                Obs_json.List (List.map Doc.str (List.rev t.Bench.errors)));
               ("metrics",
                Obs_json.Obj
                  (List.map
                     (fun (n, v) ->
                       metric_json ?samples:(List.assoc_opt n r.Bench.samples)
                         (n, v))
                     reported));
               ("spans", Obs_json.Obj spans);
               ("host", Host.context before after) ])
       ^ "\n")
   | None -> ());
  print_endline
    (Doc.to_string
       (Obs_json.Obj
          [ ("correct", Obs_json.Bool correct);
            ("attempted", Doc.int t.Bench.attempted);
            ("failed", Doc.int t.Bench.failed);
            ("metrics", Obs_json.Obj (List.map metric_json metrics)) ]))

(* ------------------------------------------------- every workload *)

(* run one workload in a child process; its last stdout line, parsed *)
let child o w ~trace ~echo =
  let args =
    [ "--workload"; w; "--seed"; string_of_int o.seed;
      "--seconds"; Printf.sprintf "%g" o.seconds;
      "--trace"; (if trace then "1" else "0"); "--root"; o.root ]
    @ (match o.out with Some d -> [ "--out"; d ] | None -> [])
    @ if o.tiny then [ "--tiny" ] else []
  in
  let self = Sys.executable_name in
  let ic = Unix.open_process_args_in self (Array.of_list (self :: args)) in
  let lines =
    In_channel.input_all ic
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  let st = Unix.close_process_in ic in
  match List.rev lines with
  | last :: rest ->
    if echo then List.iter print_endline (List.rev rest);
    if Host.status_ok st then
      try Some (Obs_json.parse last) with Obs_json.Parse_error _ -> None
    else None
  | [] -> None

let run_all ?(echo = true) o =
  let traces = match o.trace with None -> [ false; true ] | Some t -> [ t ] in
  List.concat_map
    (fun w -> List.map (fun trace -> ((w, trace), child o w ~trace ~echo)) traces)
    Catalog.workloads

let is_correct = function
  | Some j -> Doc.field "correct" j = Some (Obs_json.Bool true)
  | None -> false

(* ------------------------------------------------------------ smoke *)

let smoke o =
  o.tiny <- true;
  o.seconds <- 0.0;
  o.trace <- None;
  let bench = benchmark_json o.root in
  let names k =
    match Doc.field k bench with
    | Some (Obs_json.List ms) ->
      List.map
        (fun m ->
          ( Option.value (Doc.str_field "name" m) ~default:"",
            Option.value (Doc.str_field "unit" m) ~default:"" ))
        ms
    | _ -> []
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if List.map fst (names "workloads") <> Catalog.workloads then
    problem "BENCHMARK.json workloads differ from %s"
      (String.concat ", " Catalog.workloads);
  List.iter
    (fun ((w, trace), res) ->
      if not (is_correct res) then problem "%s (trace=%b): not correct" w trace;
      let emitted =
        match Option.bind res (Doc.field "metrics") with
        | Some (Obs_json.Obj kvs) -> kvs
        | _ -> []
      in
      List.iter
        (fun (name, unit) ->
          match List.assoc_opt name emitted with
          | Some m when Doc.str_field "unit" m = Some unit -> ()
          | Some _ -> problem "%s: %s emitted with another unit than %s" w name unit
          | None -> problem "%s (trace=%b): %s not emitted" w trace name)
        (names (if trace then "per_layer" else "end_to_end")))
    (run_all ~echo:false o);
  match !problems with
  | [] -> print_endline "e2e smoke: ok"
  | ps ->
    List.iter (fun p -> prerr_endline ("e2e smoke: " ^ p)) (List.rev ps);
    exit 1

(* ---------------------------------------------------------- golden *)

let write_golden o =
  with_work @@ fun work ->
  let ctx = ctx_of o ~work ~trace:false in
  let put name text =
    Doc.write_file (Golden.path o.root name) (Golden.mask_runtime text)
  in
  List.iter
    (fun d -> put (d ^ ".out") (Inproc.plain (Bench.deck ctx d)))
    (Inproc.corpus @ [ "sram_read" ]);
  List.iter
    (fun (name, card) ->
      put (name ^ ".out")
        (Inproc.plain (Inproc.dac_deck ~tol:Inproc.golden_tol card)))
    Inproc.dac_cards;
  (* the CSV check against the old golden may fail here; the new CSV
     is what counts *)
  let spec_path = Swept.write_spec ctx "grid.spec" Swept.full in
  let s = Swept.sweep ctx (Bench.tally ()) ~spec_path ~tag:"golden" ~traced:false in
  Doc.write_file (Golden.path o.root "sweep.csv")
    (Doc.read_file (s.Swept.prefix ^ ".csv"))

(* ------------------------------------------------------------- main *)

let () =
  let o = parse Sys.argv in
  if not (Sys.file_exists (Filename.concat o.root "decks")) then begin
    prerr_endline
      ("e2e: no decks/ under " ^ o.root ^ "; run from the repository root");
    exit 2
  end;
  if not (Sys.file_exists varsim) then begin
    prerr_endline ("e2e: " ^ varsim ^ " is not built; run `dune build` first");
    exit 2
  end;
  match o.mode with
  | One w -> run_one o w
  | Probe w ->
    let ctx = ctx_of o ~work:"." ~trace:false in
    exit (if Inproc.probe ctx w then 0 else 1)
  | All ->
    let results = run_all o in
    if not (List.for_all (fun (_, r) -> is_correct r) results) then exit 1
  | Smoke -> smoke o
  | Compare (a, b) -> exit (Compare.run ~bench:(benchmark_json o.root) a b)
  | Write_golden -> write_golden o
