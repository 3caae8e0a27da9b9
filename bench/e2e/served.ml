(* serve-mixed: `varsim serve --lanes 2 --mem-cache 8 --cache DIR --log
   FILE` driven by 2 closed-loop connections (one thread each) through
   Serve.call.  Every block of 10 requests holds 7 hits on a 16-entry
   hot set (8 decks + 8 fixed variants) and 3 fresh variants that miss,
   compute and write durably.  The hot set is twice the memory tier, so
   disk-tier hits happen. *)

open Bench

type req = {
  label : string;
  kind : string;  (** a hot entry's label; a fresh variant's base deck *)
  text : string;
  golden : string;
  fresh : bool;
}

let hot_decks =
  [ "bandgap"; "comparator"; "current_mirror"; "divider"; "logic_path"; "ota";
    "ring_osc"; "sram_read" ]

let variant_bases = [| "comparator"; "current_mirror"; "logic_path"; "ota" |]

(* A resistor from ground to ground stamps nothing, so the MNA system
   and every printed bit stay the same, but it is a device of the
   circuit, so the fingerprint changes: every fresh variant misses, and
   its output must still match its base's golden.  (A resistor across
   the supply is not neutral: it moves the comparator's ~1e-18 nominal
   offset in the last printed digit.) *)
let variant text k =
  String.split_on_char '\n' text
  |> List.concat_map (fun l ->
         if String.lowercase_ascii (String.trim l) = ".end" then
           [ Printf.sprintf "RBENCH%d 0 0 %dmeg" k k; l ]
         else [ l ])
  |> String.concat "\n"

(* ----------------------------------------------------------- daemon *)

type daemon = { pid : int; socket : string; events : string }

let start ctx tag =
  let dir = Filename.concat ctx.work tag in
  Doc.mkdir_p dir;
  let socket = Filename.concat dir "s.sock" in
  let events = Filename.concat dir "events.log" in
  let pid =
    Host.spawn ~log:(Filename.concat ctx.work "children.log") ctx.varsim
      [ "serve"; "--socket"; socket; "--lanes"; "2"; "--mem-cache"; "8";
        "--cache"; Filename.concat dir "cache"; "--log"; events ]
  in
  { pid; socket; events }

let wait_ready d =
  let deadline = now () +. 30.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.socket) with
    | () ->
      Unix.close fd;
      Ok ()
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      if now () > deadline then Error "daemon not ready after 30 s"
      else begin
        Unix.sleepf 0.002;
        go ()
      end
  in
  go ()

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  Host.wait d.pid

type reply = {
  output : string;
  fingerprint : string;
  cache_hit : bool;
  req_id : int;
}

let call d text =
  match Serve.call ~socket_path:d.socket (Serve.request_json text) with
  | Error m -> Error m
  | Ok (_, j) -> (
    let str k = Option.value (Doc.str_field k j) ~default:"" in
    match Doc.str_field "outcome" j with
    | Some "ok" ->
      Ok
        {
          output = str "output";
          fingerprint = str "fingerprint";
          cache_hit = Doc.field "cache_hit" j = Some (Obs_json.Bool true);
          req_id = int_of_float (Option.value (Doc.num_field "req" j) ~default:0.0);
        }
    | Some o -> Error ("outcome " ^ o)
    | None -> Error "response without an outcome")

(* the daemon's counters and gauges, by exposition name *)
let metrics d =
  match Serve.call ~socket_path:d.socket Serve.metrics_request with
  | Ok (_, j) ->
    Option.value (Doc.str_field "text" j) ~default:""
    |> String.split_on_char '\n'
    |> List.filter_map (fun l ->
           match String.split_on_char ' ' l with
           | [ k; v ] when l.[0] <> '#' ->
             Option.map (fun v -> (k, v)) (float_of_string_opt v)
           | _ -> None)
  | Error _ -> []

let prom_name name =
  "varsim_"
  ^ String.map
      (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as c -> c | _ -> '_')
      name

(* ----------------------------------------------------------- oracle *)

(* A fingerprint's first bytes are checked against the golden; every
   later reply for it must repeat them byte for byte. *)
type oracle = { first : (string, string) Hashtbl.t; m : Mutex.t }

let check o (r : req) reply =
  Mutex.protect o.m (fun () ->
      if r.fresh && reply.cache_hit then Error "fresh variant served from cache"
      else
        match Hashtbl.find_opt o.first reply.fingerprint with
        | Some bytes ->
          if bytes = reply.output then Ok ()
          else Error "bytes differ from the first served for this fingerprint"
        | None ->
          Hashtbl.replace o.first reply.fingerprint reply.output;
          Golden.matches ~golden:r.golden reply.output)

(* ----------------------------------------------------------- stream *)

let stream ctx =
  let golden name = Golden.load ctx.root (name ^ ".out") in
  let decks =
    if ctx.tiny then List.filteri (fun i _ -> i < 4) hot_decks else hot_decks
  in
  let entry ?(fresh = false) ~kind label text base =
    { label; kind; text; golden = golden base; fresh }
  in
  let hot =
    List.map (fun n -> entry ~kind:n n (deck ctx n) n) decks
    @ List.init
        (if ctx.tiny then 0 else 8)
        (fun i ->
          let b = variant_bases.(i mod 4) in
          let label = Printf.sprintf "%s+R%d" b (i + 1) in
          entry ~kind:label label (variant (deck ctx b) (i + 1)) b)
    |> Array.of_list
  in
  let bases = Array.map (fun b -> (b, deck ctx b)) variant_bases in
  let rng = Random.State.make [| ctx.seed; 2 |] in
  let shuffle a =
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done
  in
  let used = Hashtbl.create 256 in
  let rec fresh_k () =
    let k = 100 + Random.State.int rng 999_900 in
    if Hashtbl.mem used k then fresh_k ()
    else begin
      Hashtbl.add used k ();
      k
    end
  in
  let order = Array.init (Array.length hot) Fun.id in
  let hits = ref 0 and misses = ref 0 in
  (* block of 10: misses at 3 seeded positions, hits walk a reshuffled
     permutation of the hot set, misses cycle the four bases *)
  let block () =
    let pos = Array.init 10 Fun.id in
    shuffle pos;
    List.init 10 (fun i ->
        if Array.exists (( = ) i) (Array.sub pos 0 3) then begin
          let b, text = bases.(!misses mod 4) in
          incr misses;
          let k = fresh_k () in
          entry ~fresh:true ~kind:(b ^ "+fresh")
            (Printf.sprintf "%s+R%d" b k)
            (variant text k) b
        end
        else begin
          if !hits mod Array.length hot = 0 then shuffle order;
          let r = hot.(order.(!hits mod Array.length hot)) in
          incr hits;
          r
        end)
  in
  (hot, block)

(* ------------------------------------------------------------- run *)

(* setup_s: spawn a daemon on an empty cache and time it to its first
   answer (bandgap, computed cold) *)
let probe ctx t i =
  let t0 = now () in
  let d = start ctx (Printf.sprintf "probe%d" i) in
  let res = Result.bind (wait_ready d) (fun () -> call d (deck ctx "bandgap")) in
  let dt = now () -. t0 in
  let golden = Golden.load ctx.root "bandgap.out" in
  record t "probe"
    (Result.bind res (fun reply -> Golden.matches ~golden reply.output));
  ignore (stop d);
  dt

type sample = {
  req : req;
  lat : float;
  done_at : float;
  hit : bool;
  id : int;  (** the daemon's request id *)
  traced : bool;
}

(* completions per second in each whole 2-second slice of the window,
   median: a burst of host contention moves one slice, not the run *)
let slice_rate ~t0 ~wall samples =
  let width = 2.0 in
  let slices = int_of_float (wall /. width) in
  if slices = 0 then float_of_int (List.length samples) /. wall
  else begin
    let counts = Array.make slices 0 in
    List.iter
      (fun s ->
        let k = int_of_float ((s.done_at -. t0) /. width) in
        if k < slices then counts.(k) <- counts.(k) + 1)
      samples;
    Array.to_list counts
    |> List.map (fun c -> float_of_int c /. width)
    |> Doc.median
  end

(* The daemon keeps telemetry on: counters are deltas of its metrics op
   across the window, queue and elapsed times come from its µs event
   log matched by request id.  Its engine spans run on lane domains,
   which the exported span tree does not cover, so the only self times
   are parse and fingerprint, timed here on the same request texts. *)
let daemon_trace d ~before ~after samples =
  let n = List.length samples in
  let delta name = Catalog.get after name -. Catalog.get before name in
  let counter c = (c, delta (prom_name c ^ "_total")) in
  let events = Hashtbl.create 1024 in
  List.iter
    (fun l ->
      match Obs_json.parse l with
      | j -> (
        let num k = Doc.num_field k j in
        match num "req", num "queue_s", num "elapsed_s" with
        | Some r, Some q, Some e -> Hashtbl.replace events (int_of_float r) (q, e)
        | _ -> ())
      | exception Obs_json.Parse_error _ -> ())
    (Doc.lines d.events);
  let joined =
    List.filter_map
      (fun s ->
        Option.map (fun (q, e) -> (s, q, e)) (Hashtbl.find_opt events s.id))
      samples
  in
  let load = ref 0.0 and fp = ref 0.0 in
  List.iter
    (fun s ->
      let a = now () in
      let deck = Spice_elab.load_string s.req.text in
      let b = now () in
      ignore (Spice_job.fingerprint (Spice_job.request deck));
      load := !load +. (b -. a);
      fp := !fp +. (now () -. b))
    samples;
  let p50 xs = Doc.quantile xs 0.5 in
  let elapsed_if hit =
    List.filter_map (fun (s, _, e) -> if s.hit = hit then Some e else None) joined
  in
  let lat_if traced =
    List.filter_map (fun s -> if s.traced = traced then Some s.lat else None) samples
  in
  let queue = List.map (fun (_, q, _) -> q) joined in
  let per_req v = v /. float_of_int n in
  {
    Catalog.empty_trace with
    jobs = n;
    selfs = [ ("spice.load", !load); ("spice.fingerprint", !fp) ];
    counters =
      List.map counter Catalog.work_counters
      @ List.concat_map
          (fun c ->
            [ counter ("cache." ^ c ^ ".hits"); counter ("cache." ^ c ^ ".misses") ])
          Catalog.hit_ratios;
    gauges =
      [ ("linsys.splu.nnz_lu", Catalog.get after (prom_name "linsys.splu.nnz_lu")) ];
    computed =
      [ ("serve.queue_s.p50", p50 queue);
        ("serve.queue_s.p90", Doc.quantile queue 0.9);
        ("serve.hit.elapsed_s.p50", p50 (elapsed_if true));
        ("serve.miss.elapsed_s.p50", p50 (elapsed_if false));
        ("serve.transport_s.p50",
         p50 (List.map (fun (s, q, e) -> s.lat -. q -. e) joined));
        ("obs.overhead_ratio", (p50 (lat_if true) /. p50 (lat_if false)) -. 1.0);
        ("gc.minor_words_per_job", per_req (delta (prom_name "gc.minor_words")));
        ("gc.major_collections_per_job",
         per_req (delta (prom_name "gc.major_collections")));
        ("gc.top_heap_mb",
         Catalog.get after (prom_name "gc.heap_words")
         *. float_of_int (Sys.word_size / 8)
         /. 1048576.0) ];
  }

let run ctx =
  let t = tally () in
  let o = { first = Hashtbl.create 64; m = Mutex.create () } in
  let setup = List.init ctx.probes (probe ctx t) in
  let hot, block = stream ctx in
  let d = start ctx "daemon" in
  record t "daemon start" (wait_ready d);
  Array.iter
    (fun r -> record t r.label (Result.bind (call d r.text) (check o r)))
    hot;
  let before = if ctx.trace then metrics d else [] in
  let cpu0 = Host.cpu_s d.pid in
  if ctx.trace then Obs.enable ();
  (* the stream: requests in index order, whole blocks of 10 *)
  let m = Mutex.create () in
  let pending = Queue.create () in
  let issued = ref 0 in
  let deadline = now () +. ctx.seconds in
  let next () =
    Mutex.protect m (fun () ->
        if !issued mod 10 = 0 && !issued > 0 && now () >= deadline then None
        else begin
          if Queue.is_empty pending then
            List.iter (fun r -> Queue.push r pending) (block ());
          let i = !issued in
          incr issued;
          Some (i, Queue.pop pending)
        end)
  in
  let samples = ref [] in
  let client c =
    let tid =
      if not ctx.trace then None
      else
        Some
          (Obs.extern_track ~key:(Printf.sprintf "client%d" c)
             ~name:(Printf.sprintf "client %d" c))
    in
    let rec loop () =
      match next () with
      | None -> ()
      | Some (i, r) ->
        let a = now () in
        let res = call d r.text in
        let dt = now () -. a in
        let traced = ctx.trace && i / 10 mod 2 = 0 in
        (match tid with
         | Some tid when traced ->
           Obs.extern_slice ~tid ~name:"serve.call" ~ts_abs:a ~dur_s:dt
         | Some _ | None -> ());
        record t r.label (Result.bind res (check o r));
        (match res with
         | Ok reply ->
           let s =
             { req = r; lat = dt; done_at = a +. dt; hit = reply.cache_hit;
               id = reply.req_id; traced }
           in
           Mutex.protect m (fun () -> samples := s :: !samples)
         | Error _ -> ());
        loop ()
    in
    loop ()
  in
  let t0 = now () in
  List.iter Thread.join (List.init 2 (Thread.create client));
  let wall = now () -. t0 in
  let cpu1 = Host.cpu_s d.pid in
  let rss =
    Option.value (Host.peak_rss_mib (string_of_int d.pid)) ~default:nan
  in
  let after = if ctx.trace then metrics d else [] in
  (match stop d with
   | st when Host.status_ok st -> ()
   | st -> record t "daemon stop" (Error (Host.describe_status st)));
  let n = List.length !samples in
  let jobs_if p =
    List.filter_map
      (fun s -> if p s then Some (s.req.kind, s.lat) else None)
      !samples
  in
  let jobs = jobs_if (fun _ -> true) in
  let hits = jobs_if (fun s -> s.hit) and misses = jobs_if (fun s -> not s.hit) in
  let trace =
    if not ctx.trace then None
    else begin
      (match ctx.out with
       | Some dir -> Obs.write_trace (Filename.concat dir "serve-mixed.trace.json")
       | None -> ());
      Obs.disable ();
      Some (daemon_trace d ~before ~after !samples)
    end
  in
  let cpu =
    match cpu0, cpu1 with
    | Some a, Some b -> (b -. a) /. float_of_int n
    | _ -> nan
  in
  {
    tally = t;
    e2e =
      [ ("throughput_jobs_s", slice_rate ~t0 ~wall !samples) ]
      @ percentiles jobs
      @ [ ("cpu_s_per_job", cpu); ("setup_s", Doc.median setup);
          ("peak_rss_mb", rss) ];
    specific =
      [ ("hit_latency_p50_s", mix_quantile hits 0.5);
        ("miss_latency_p50_s", mix_quantile misses 0.5);
        ("failed_ratio", failed_ratio t) ]
      (* the tail itself: every request counts as measured *)
      @
      if n >= 1000 then
        [ ("latency_p99_s", Doc.quantile (List.map snd jobs) 0.99) ]
      else [];
    samples =
      [ ("latency_p50_s", n); ("latency_p90_s", n); ("latency_p99_s", n);
        ("hit_latency_p50_s", List.length hits);
        ("miss_latency_p50_s", List.length misses);
        ("setup_s", List.length setup) ];
    trace;
  }
