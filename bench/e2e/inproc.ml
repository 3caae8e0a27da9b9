(* The three in-process workloads (corpus-cold, large-sigma, yield-sram):
   one closed-loop client calling the public job API with no cache,
   Spice_elab.load_string -> Spice_job.submit, deck text in hand to
   rendered bytes. *)

open Bench

type input = {
  label : string;
  text : string;
  check : string -> (unit, string) result;
}

type spec = {
  warm : input list;  (** the untimed first pass *)
  round : int -> input list;  (** inputs of window round r *)
  probe : input list;  (** what one cold-start probe runs *)
  samples : int;  (** Monte-Carlo samples per job (0: none) *)
}

(* ------------------------------------------------------------- jobs *)

let plain text =
  (Spice_job.submit (Spice_job.request (Spice_elab.load_string text)))
    .Spice_job.output

(* The sequence Spice_job.submit performs without a cache, with a span
   around each step; the library's own spans (dc.solve, pss.solve,
   lptv.build, ...) nest under spice.execute.  Must print the same
   bytes as [plain]: the same golden check runs on both. *)
let instrumented text =
  Obs.span "job" @@ fun () ->
  let deck = Obs.span "spice.load" (fun () -> Spice_elab.load_string text) in
  let req = Spice_job.request deck in
  ignore (Obs.span "spice.fingerprint" (fun () -> Spice_job.fingerprint req));
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  if deck.Spice_elab.title <> "" then
    Format.fprintf ppf "* %s@.@." deck.Spice_elab.title;
  let d0 = Linsys.degradation_count () in
  let k0 = Linsys.krylov_fallback_count () in
  let cards =
    match deck.Spice_elab.analyses with
    | [] -> [ Spice_ast.A_op ]
    | cs -> List.map snd cs
  in
  List.iter
    (fun card ->
      let r =
        Obs.span "spice.execute" (fun () ->
            Spice_run.execute ~domains:req.Spice_job.domains
              ~policy:req.Spice_job.policy deck card)
      in
      Obs.span "spice.render" (fun () -> Spice_run.render ppf deck card r))
    cards;
  let d = Linsys.degradation_count () - d0 in
  let k = Linsys.krylov_fallback_count () - k0 in
  if d > 0 || k > 0 then
    Format.fprintf ppf
      "resilience summary: %d sparse->dense degradation(s), %d krylov \
       fallback(s)@."
      d k;
  Format.pp_print_flush ppf ();
  ignore (Obs.span "version.provenance" Version.provenance);
  Buffer.contents buf

(* run one job and check its output *)
let attempt job (i : input) =
  match job i.text with
  | out -> i.check out
  | exception e -> Error (Printexc.to_string e)

(* -------------------------------------------------------- workloads *)

let corpus =
  [ "bandgap"; "comparator"; "current_mirror"; "divider"; "logic_path"; "ota";
    "ring_osc" ]

let golden_input ctx name =
  let golden = Golden.load ctx.root (name ^ ".out") in
  { label = name; text = deck ctx name; check = Golden.matches ~golden }

(* rounds of the 7 small committed decks: per-job fixed costs and the
   dense small-circuit DC/PSS/LPTV path dominate *)
let corpus_cold ctx =
  let inputs = List.map (golden_input ctx) corpus in
  { warm = inputs; round = (fun _ -> inputs); probe = inputs;
    samples = 0 }

(* 512-code resistor-string DAC: 513 MNA unknowns, 1023 mismatch
   sources, a sine ripple on VREF so PSS and the LPTV wrap are real *)
let dac_deck ~tol card =
  let b = Buffer.create 40_000 in
  let node k =
    if k = 0 then "0" else if k = 512 then "vref" else Printf.sprintf "tap%d" k
  in
  Buffer.add_string b
    "512-code resistor-string DAC\nVREF vref 0 SIN(1 0.02 1meg)\n";
  for k = 1 to 512 do
    Printf.bprintf b "R%d %s %s 1k tol=%s\n" k (node k) (node (k - 1)) tol
  done;
  for k = 1 to 511 do
    Printf.bprintf b "C%d tap%d 0 1p tol=%s\n" k k tol
  done;
  Printf.bprintf b "%s\n.end\n" card;
  Buffer.contents b

(* Two .mismatch cards for every .mismatchdelay one: the delay card is
   ~30% slower, and an even split would put the median on the gap
   between the two clusters, where it jumps from run to run. *)
let dac_cards =
  [ ("dac-mismatch-tap256", ".mismatch tap256 pss=1u");
    ("dac-mismatch-tap128", ".mismatch tap128 pss=1u");
    ("dac-delay-tap500", ".mismatchdelay tap500 pss=1u vth=0.9766 edge=rise") ]

let golden_tol = "0.01"

let large_sigma ctx =
  let rng = Random.State.make [| ctx.seed; 1 |] in
  let cards = if ctx.tiny then [ List.hd dac_cards ] else dac_cards in
  let goldens =
    List.map (fun (name, _) -> (name, Golden.load ctx.root (name ^ ".out"))) cards
  in
  let input (name, card) =
    (* tol seeded per job, 0.0050 .. 0.0200 *)
    let tol =
      Printf.sprintf "%.4f"
        (0.005 +. (1e-4 *. float_of_int (Random.State.int rng 151)))
    in
    {
      label = name;
      text = dac_deck ~tol card;
      check =
        Golden.matches_scaled ~golden:(List.assoc name goldens)
          ~golden_tol:(float_of_string golden_tol) ~tol:(float_of_string tol);
    }
  in
  let pool = Array.init 8 (fun _ -> List.map input cards) in
  { warm = pool.(0); round = (fun r -> pool.(r mod Array.length pool));
    probe = [ List.hd pool.(0) ]; samples = 0 }

let yield_card ~n ~seed =
  Printf.sprintf ".yield q above=0.6 n=%d fom=0.01 scale=0.25 seed=%d" n seed

let with_yield_card text card =
  String.split_on_char '\n' text
  |> List.map (fun l -> if String.starts_with ~prefix:".yield" l then card else l)
  |> String.concat "\n"

(* The committed card stops on fom, after 8k..19k samples depending on
   the seed; pinning n (fom=0.01 is never reached) makes every job the
   same work, so seeds change values, not cost.  Equal seeds must print
   identical bytes; the .op block must match the committed deck's. *)
let yield_sram ctx =
  let n = if ctx.tiny then 256 else 2048 in
  let base = deck ctx "sram_read" in
  let op_block s =
    match Doc.find_sub s "\n.yield" with Some i -> String.sub s 0 i | None -> s
  in
  let golden_op = op_block (Golden.load ctx.root "sram_read.out") in
  let first = Hashtbl.create 4 in
  let m = Mutex.create () in
  let input seed =
    let check out =
      let same =
        Mutex.protect m (fun () ->
            match Hashtbl.find_opt first seed with
            | Some o -> o = out
            | None ->
              Hashtbl.replace first seed out;
              true)
      in
      if not same then Error "equal seeds printed different bytes"
      else if op_block out <> golden_op then
        Golden.matches ~golden:golden_op (op_block out)
      else if not (Doc.contains out (Printf.sprintf "samples = %d (" n)) then
        Error (Printf.sprintf "expected %d samples" n)
      else Ok ()
    in
    { label = Printf.sprintf "yield-seed%d" seed;
      text = with_yield_card base (yield_card ~n ~seed); check }
  in
  let seeds = if ctx.tiny then [ ctx.seed; ctx.seed ] else List.init 4 (( + ) ctx.seed) in
  let inputs = List.map input seeds in
  { warm = [ List.hd inputs ]; round = (fun _ -> inputs);
    probe = [ List.hd inputs ]; samples = n }

let spec_of ctx = function
  | "corpus-cold" -> corpus_cold ctx
  | "large-sigma" -> large_sigma ctx
  | "yield-sram" -> yield_sram ctx
  | w -> invalid_arg ("not an in-process workload: " ^ w)

(* ----------------------------------------------------------- probes *)

(* one cold start in a fresh process: exit 0 iff every output checks *)
let probe ctx workload =
  let spec = spec_of ctx workload in
  let t = tally () in
  List.iter (fun i -> record t i.label (attempt plain i)) spec.probe;
  List.iter prerr_endline (List.rev t.errors);
  t.failed = 0

let probe_args ctx workload =
  [ "--probe"; workload; "--seed"; string_of_int ctx.seed; "--root"; ctx.root ]
  @ if ctx.tiny then [ "--tiny" ] else []

(* ------------------------------------------------------------- run *)

let run ctx workload =
  let spec = spec_of ctx workload in
  let t = tally () in
  let setup =
    List.init ctx.probes (fun _ ->
        timed_exit ctx t ~what:"probe" ctx.self (probe_args ctx workload))
  in
  List.iter (fun i -> record t i.label (attempt plain i)) spec.warm;
  (* the window; rates and CPU are kept per round, so a burst of host
     contention moves one round's value, not the run's median *)
  let lats = ref [] and traced_lats = ref [] in
  let rates = ref [] and cpus = ref [] and sample_rates = ref [] in
  let traced_jobs = ref 0 in
  let selfs = Hashtbl.create 32 and counters = Hashtbl.create 64 in
  let gauges = ref [] and root_wall = ref 0.0 and root_self = ref 0.0 in
  let gc_words = ref 0.0 and gc_major = ref 0 and gc_jobs = ref 0 in
  let round r =
    let traced = ctx.trace && r mod 2 = 0 in
    let inputs = spec.round r in
    let w0 = Gc.minor_words () and g0 = (Gc.quick_stat ()).Gc.major_collections in
    if traced then Obs.enable ();
    let r0 = now () and c0 = Host.own_cpu_s () and ok = ref 0 in
    List.iter
      (fun i ->
        let a = now () in
        let res = attempt (if traced then instrumented else plain) i in
        let dt = now () -. a in
        record t i.label res;
        if Result.is_ok res then incr ok;
        if traced then traced_lats := dt :: !traced_lats
        else lats := (i.label, dt) :: !lats)
      inputs;
    let n = List.length inputs in
    let wall = now () -. r0 in
    rates := (float_of_int n /. wall) :: !rates;
    cpus := ((Host.own_cpu_s () -. c0) /. float_of_int n) :: !cpus;
    sample_rates := (float_of_int (!ok * spec.samples) /. wall) :: !sample_rates;
    if traced then begin
      Obs.disable ();
      traced_jobs := !traced_jobs + n;
      List.iter
        (fun (top : Obs.span_tree) ->
          if top.span_name = "job" then begin
            let covered =
              List.fold_left (fun a (c : Obs.span_tree) -> a +. c.wall_s) 0.0
                top.children
            in
            root_wall := !root_wall +. top.wall_s;
            root_self := !root_self +. Float.max 0.0 (top.wall_s -. covered);
            List.iter (Catalog.add_selfs selfs) top.children
          end
          else Catalog.add_selfs selfs top)
        (Obs.snapshot_spans ());
      add_into counters
        (List.map (fun (k, v) -> (k, float_of_int v)) (Obs.counters ()));
      gauges := Obs.gauges ()
    end
    else begin
      gc_words := !gc_words +. (Gc.minor_words () -. w0);
      gc_major := !gc_major + ((Gc.quick_stat ()).Gc.major_collections - g0);
      gc_jobs := !gc_jobs + n
    end
  in
  rounds ~seconds:ctx.seconds ~min_rounds:(if ctx.trace then 2 else 1) round;
  (match ctx.out with
   | Some d when ctx.trace ->
     Obs.write_trace (Filename.concat d (workload ^ ".trace.json"))
   | Some _ | None -> ());
  let per_gc v = if !gc_jobs > 0 then v /. float_of_int !gc_jobs else 0.0 in
  let trace =
    if not ctx.trace then None
    else
      Some
        {
          Catalog.jobs = !traced_jobs;
          selfs = sorted selfs;
          root_wall = !root_wall;
          root_self = !root_self;
          counters = sorted counters;
          gauges = !gauges;
          computed =
            [ ("obs.overhead_ratio",
               (Doc.median !traced_lats /. Doc.median (List.map snd !lats)) -. 1.0);
              ("gc.minor_words_per_job", per_gc !gc_words);
              ("gc.major_collections_per_job", per_gc (float_of_int !gc_major));
              ("gc.top_heap_mb",
               float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
               /. 1048576.0) ];
        }
  in
  {
    tally = t;
    e2e =
      [ ("throughput_jobs_s", Doc.median !rates) ]
      @ percentiles !lats
      @ [ ("cpu_s_per_job", Doc.median !cpus);
          ("setup_s", Doc.median setup);
          ("peak_rss_mb", rss_self ()) ];
    specific =
      (("failed_ratio", failed_ratio t)
      ::
      (if Doc.median !sample_rates > 0.0 then
         [ ("samples_per_s", Doc.median !sample_rates) ]
       else []));
    samples =
      [ ("latency_p50_s", List.length !lats); ("latency_p90_s", List.length !lats);
        ("setup_s", List.length setup) ];
    trace;
  }
