(* The typed job layer of the pipeline (docs/serving.md):

     elaborate (Spice_elab) -> plan/execute (Spice_run) -> render

   wrapped into one [submit] call that the CLI, the sweep workers and
   the serve daemon all share.  A job's identity is its fingerprint —
   deck content plus the knobs that shape results — and the
   rendered bytes are cached under it, so an identical deck submitted
   twice produces byte-identical output with the warm run skipping all
   plan/PSS work. *)

type request = {
  deck : Spice_elab.t;
  domains : int;
  steps : int option;
  f_offset : float option;
  policy : Retry.policy;
  budget : Budget.t option;
  cache : Cache.t option;
}

type outcome = {
  output : string;
  fingerprint : string;
  cache_hit : bool;
  degradations : int;
  krylov_fallbacks : int;
  elapsed_s : float;
  provenance : string;
}

let request ?(domains = 1) ?steps ?f_offset ?(policy = Retry.default) ?budget
    ?cache deck =
  { deck; domains; steps; f_offset; policy; budget; cache }

(* [domains] is excluded: lane count is bit-identical by design
   (docs/parallelism.md).  [policy]/[budget] are excluded: they bound
   how long a run may take, not what a completed run prints — a cached
   result is by construction one that completed.  The linear-solver
   regime needs no slot: it is a function of the circuit size, which
   the deck fingerprint already pins. *)
let fingerprint req =
  Fingerprint.strings "job"
    [ Spice_elab.fingerprint req.deck;
      string_of_int (Option.value req.steps ~default:200);
      Printf.sprintf "%.17g" (Option.value req.f_offset ~default:1.0) ]

(* A run under engine-fault injection may print degraded output
   (resilience summaries, retried trajectories); replaying those bytes
   on a later clean run — or serving clean bytes to a fault drill —
   would falsify both.  The cache's own sites are exempt: they exist
   precisely to be drilled against live cache traffic.  So are the
   observability-only sites (telemetry export, the serve event log) —
   their faults lose records, never bits of the computed result. *)
let faults_block_caching () =
  List.exists
    (fun s ->
      not
        (List.mem s
           [ "cache.read"; "cache.write"; "obs.export"; "serve.log.write" ]))
    (Faultsim.armed_sites ())

let compute req =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Spice_run.run ~domains:req.domains ?steps:req.steps ?f_offset:req.f_offset
    ~policy:req.policy ?budget:req.budget ?cache:req.cache ppf req.deck;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let submit req =
  Obs.span "job.submit" @@ fun () ->
  Obs.count "job.submits" 1;
  let t0 = Unix.gettimeofday () in
  let fp = fingerprint req in
  let key = fp ^ "|result" in
  let cacheable = not (faults_block_caching ()) in
  let cached =
    match req.cache with
    | Some c when cacheable -> Cache.find_result c key
    | Some _ | None -> None
  in
  match cached with
  | Some output ->
    { output; fingerprint = fp; cache_hit = true; degradations = 0;
      krylov_fallbacks = 0; elapsed_s = Unix.gettimeofday () -. t0;
      provenance = Version.provenance () }
  | None ->
    let d0 = Linsys.degradation_count () in
    let k0 = Linsys.krylov_fallback_count () in
    (* under engine faults the state caches are bypassed too: a
       NaN-poisoned PSS state must not seed later clean runs *)
    let req = if cacheable then req else { req with cache = None } in
    let output = compute req in
    (match req.cache with
     | Some c when cacheable -> Cache.put_result c key output
     | Some _ | None -> ());
    { output; fingerprint = fp; cache_hit = false;
      degradations = Linsys.degradation_count () - d0;
      krylov_fallbacks = Linsys.krylov_fallback_count () - k0;
      elapsed_s = Unix.gettimeofday () -. t0;
      provenance = Version.provenance () }
