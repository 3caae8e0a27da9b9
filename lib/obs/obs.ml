exception Misuse of string

let debug = ref false

(* the enabled flag is read on every primitive from every domain; an
   atomic makes the disabled fast path race-free without a lock *)
let on = Atomic.make false
let enabled () = Atomic.get on
let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------ span tree *)

(* Children with the same name under one parent share a node, so
   per-timestep spans aggregate instead of growing the tree without
   bound.  A node is mutated only by the domain that owns its context,
   so tree operations need no lock. *)
type node = {
  nname : string;
  mutable ncalls : int; (* completed activations *)
  mutable nwall : float; (* total wall seconds of completed activations *)
  mutable nchildren : node list; (* newest-first; reversed on export *)
}

let new_node name = { nname = name; ncalls = 0; nwall = 0.0; nchildren = [] }

type ctx = {
  cid : int; (* Domain id, for trace track assignment *)
  croot : node; (* synthetic per-domain container *)
  mutable cstack : (node * float) list; (* open spans: node, start time *)
}

(* ------------------------------------------------------------ global state *)

let mu = Mutex.create ()
let t_epoch = ref 0.0 (* written under mu (reset); read under mu *)
let owner = Atomic.make (-1) (* domain that called enable; -1 = none *)
let root_open = ref false
let ctxs : ctx list ref = ref []
let counters_tbl : (string, int ref) Hashtbl.t = Hashtbl.create 64
let gauges_tbl : (string, float) Hashtbl.t = Hashtbl.create 16
let hists_tbl : (string, Histogram.t) Hashtbl.t = Hashtbl.create 16

type span_tree = {
  span_name : string;
  calls : int;
  wall_s : float;
  children : span_tree list;
}

let remotes : span_tree list ref = ref [] (* merged worker trees, under mu *)

type ev = { ev_name : string; ev_tid : int; ev_ts : float; ev_dur : float }

let events : ev list ref = ref [] (* newest-first *)

(* whether span/lane slices are kept for the Chrome trace: a long-lived
   process that will never export one (the serve daemon without
   --trace) must not grow [events] with every request it serves *)
let timeline_on = Atomic.make true

(* under mu *)
let push_event ev = if Atomic.get timeline_on then events := ev :: !events
let tracks : (int, string) Hashtbl.t = Hashtbl.create 8
let extern_ids : (string, int) Hashtbl.t = Hashtbl.create 8

let progress : (string -> [ `Begin | `End of float ] -> unit) option Atomic.t =
  Atomic.make None

let set_progress f = Atomic.set progress f

let progress_all :
    (int -> string -> [ `Begin | `End of float ] -> unit) option Atomic.t =
  Atomic.make None

let set_progress_all f = Atomic.set progress_all f

let ctx_key =
  Domain.DLS.new_key (fun () ->
      let c =
        { cid = (Domain.self () :> int); croot = new_node "(session)";
          cstack = [] }
      in
      Mutex.lock mu;
      ctxs := c :: !ctxs;
      Mutex.unlock mu;
      c)

let clear_ctx c =
  c.cstack <- [];
  c.croot.ncalls <- 0;
  c.croot.nwall <- 0.0;
  c.croot.nchildren <- []

let reset () =
  Mutex.lock mu;
  Hashtbl.reset counters_tbl;
  Hashtbl.reset gauges_tbl;
  Hashtbl.reset hists_tbl;
  Hashtbl.reset tracks;
  Hashtbl.reset extern_ids;
  remotes := [];
  events := [];
  root_open := false;
  List.iter clear_ctx !ctxs;
  t_epoch := now ();
  Mutex.unlock mu

let epoch () =
  Mutex.lock mu;
  let e = !t_epoch in
  Mutex.unlock mu;
  e

let enable ?(timeline = true) () =
  reset ();
  Atomic.set timeline_on timeline;
  Atomic.set owner (Domain.self () :> int);
  (* the owner's track is created eagerly so the trace always has a
     named "main" track even if no lane work happens *)
  ignore (Domain.DLS.get ctx_key);
  Hashtbl.replace tracks 0 "main";
  Atomic.set on true

let disable () = Atomic.set on false

(* ------------------------------------------------------------ spans *)

let is_owner c = Atomic.get owner = c.cid
let progress_depth = 2

let find_or_add parent name =
  let rec find = function
    | [] ->
      let n = new_node name in
      parent.nchildren <- n :: parent.nchildren;
      n
    | n :: rest -> if String.equal n.nname name then n else find rest
  in
  find parent.nchildren

let span_begin name =
  if Atomic.get on then begin
    let c = Domain.DLS.get ctx_key in
    let depth = List.length c.cstack in
    let parent =
      match c.cstack with (n, _) :: _ -> n | [] -> c.croot
    in
    let node = find_or_add parent name in
    c.cstack <- (node, now ()) :: c.cstack;
    (match Atomic.get progress with
     | Some f when is_owner c && depth < progress_depth -> f name `Begin
     | _ -> ());
    match Atomic.get progress_all with
    | Some f when depth < progress_depth -> f c.cid name `Begin
    | _ -> ()
  end

let emit_span_event c name ~ts ~dur =
  let tid = if is_owner c then 0 else 500 + c.cid in
  Mutex.lock mu;
  if tid <> 0 && not (Hashtbl.mem tracks tid) then
    Hashtbl.replace tracks tid (Printf.sprintf "domain %d" c.cid);
  push_event
    { ev_name = name; ev_tid = tid; ev_ts = (ts -. !t_epoch) *. 1e6;
      ev_dur = dur *. 1e6 };
  Mutex.unlock mu

let span_end name =
  if Atomic.get on then begin
    let c = Domain.DLS.get ctx_key in
    match c.cstack with
    | [] ->
      if !debug then
        raise (Misuse (Printf.sprintf "span_end %S with no open span" name))
    | (node, ts) :: rest ->
      if !debug && not (String.equal node.nname name) then
        raise
          (Misuse
             (Printf.sprintf "span_end %S does not match open span %S" name
                node.nname));
      c.cstack <- rest;
      let dt = now () -. ts in
      node.ncalls <- node.ncalls + 1;
      node.nwall <- node.nwall +. dt;
      emit_span_event c node.nname ~ts ~dur:dt;
      (match Atomic.get progress with
       | Some f when is_owner c && List.length rest < progress_depth ->
         f node.nname (`End dt)
       | _ -> ());
      (match Atomic.get progress_all with
       | Some f when List.length rest < progress_depth ->
         f c.cid node.nname (`End dt)
       | _ -> ())
  end

let span name f =
  if not (Atomic.get on) then f ()
  else begin
    span_begin name;
    match f () with
    | y ->
      span_end name;
      y
    | exception e ->
      span_end name;
      raise e
  end

let root name f =
  if not (Atomic.get on) then f ()
  else begin
    Mutex.lock mu;
    let already = !root_open in
    if not already then root_open := true;
    Mutex.unlock mu;
    if already then begin
      if !debug then raise (Misuse "root span opened while a root is open");
      span name f
    end
    else
      Fun.protect
        ~finally:(fun () ->
          Mutex.lock mu;
          root_open := false;
          Mutex.unlock mu)
        (fun () -> span name f)
  end

(* ------------------------------------- counters/gauges/histograms *)

let count name n =
  if Atomic.get on then begin
    Mutex.lock mu;
    (match Hashtbl.find_opt counters_tbl name with
     | Some r -> r := !r + n
     | None -> Hashtbl.add counters_tbl name (ref n));
    Mutex.unlock mu
  end

let gauge name v =
  if Atomic.get on then begin
    Mutex.lock mu;
    Hashtbl.replace gauges_tbl name v;
    Mutex.unlock mu
  end

let counter_value name =
  Mutex.lock mu;
  let v =
    match Hashtbl.find_opt counters_tbl name with Some r -> !r | None -> 0
  in
  Mutex.unlock mu;
  v

let hist_locked name =
  match Hashtbl.find_opt hists_tbl name with
  | Some h -> h
  | None ->
    let h = Histogram.create () in
    Hashtbl.add hists_tbl name h;
    h

let observe name v =
  if Atomic.get on then begin
    Mutex.lock mu;
    Histogram.observe (hist_locked name) v;
    Mutex.unlock mu
  end

let histograms () =
  Mutex.lock mu;
  let xs =
    Hashtbl.fold (fun name h acc -> (name, Histogram.copy h) :: acc) hists_tbl
      []
  in
  Mutex.unlock mu;
  List.sort (fun (a, _) (b, _) -> String.compare a b) xs

let quantile name q =
  Mutex.lock mu;
  let v =
    match Hashtbl.find_opt hists_tbl name with
    | Some h when Histogram.count h > 0 -> Some (Histogram.quantile h q)
    | _ -> None
  in
  Mutex.unlock mu;
  v

(* ------------------------------------------------------ remote merging *)

let merge_counters xs =
  Mutex.lock mu;
  List.iter
    (fun (name, n) ->
      match Hashtbl.find_opt counters_tbl name with
      | Some r -> r := !r + n
      | None -> Hashtbl.add counters_tbl name (ref n))
    xs;
  Mutex.unlock mu

let merge_gauges xs =
  Mutex.lock mu;
  List.iter (fun (name, v) -> Hashtbl.replace gauges_tbl name v) xs;
  Mutex.unlock mu

let merge_histogram name h =
  Mutex.lock mu;
  Histogram.merge_into ~into:(hist_locked name) h;
  Mutex.unlock mu

(* structural name-merge: same-name siblings aggregate, recursively *)
let rec merge_tree_into lst t =
  match lst with
  | [] -> [ t ]
  | x :: rest when String.equal x.span_name t.span_name ->
    {
      x with
      calls = x.calls + t.calls;
      wall_s = x.wall_s +. t.wall_s;
      children = List.fold_left merge_tree_into x.children t.children;
    }
    :: rest
  | x :: rest -> x :: merge_tree_into rest t

let merge_span_tree t =
  Mutex.lock mu;
  remotes := merge_tree_into !remotes t;
  Mutex.unlock mu

let remote_spans () =
  Mutex.lock mu;
  let r = !remotes in
  Mutex.unlock mu;
  r

let extern_base = 1000

let extern_track ~key ~name =
  Mutex.lock mu;
  let tid =
    match Hashtbl.find_opt extern_ids key with
    | Some tid -> tid
    | None ->
      (* hash the key into a wide id space so the id is stable across
         runs of the same spec; probe past rare collisions *)
      let base = extern_base + (Hashtbl.hash key land 0xFFFFF) in
      let rec probe tid =
        if Hashtbl.mem tracks tid then probe (tid + 1) else tid
      in
      let tid = probe base in
      Hashtbl.replace extern_ids key tid;
      Hashtbl.replace tracks tid name;
      tid
  in
  Mutex.unlock mu;
  tid

let extern_slice ~tid ~name ~ts_abs ~dur_s =
  Mutex.lock mu;
  push_event
    { ev_name = name; ev_tid = tid; ev_ts = (ts_abs -. !t_epoch) *. 1e6;
      ev_dur = dur_s *. 1e6 };
  Mutex.unlock mu

(* ------------------------------------------------------------ lane hooks *)

let lane_tid lane = 100 + lane

(* hot-path counter names are preallocated so an enabled run does not
   build a fresh string per pool chunk *)
let lane_counter_names =
  Array.init 64 (fun k -> Printf.sprintf "pool.lane%d.items" k)

let lane_counter lane =
  if lane >= 0 && lane < Array.length lane_counter_names then
    lane_counter_names.(lane)
  else Printf.sprintf "pool.lane%d.items" lane

let announce_lanes n =
  if Atomic.get on then begin
    Mutex.lock mu;
    for lane = 0 to n - 1 do
      let tid = lane_tid lane in
      if not (Hashtbl.mem tracks tid) then
        Hashtbl.replace tracks tid (Printf.sprintf "lane %d" lane)
    done;
    Mutex.unlock mu
  end

let lane_slice ~lane ~name ~t0 ~t1 =
  if Atomic.get on then begin
    let tid = lane_tid lane in
    Mutex.lock mu;
    if not (Hashtbl.mem tracks tid) then
      Hashtbl.replace tracks tid (Printf.sprintf "lane %d" lane);
    push_event
      { ev_name = name; ev_tid = tid; ev_ts = (t0 -. !t_epoch) *. 1e6;
        ev_dur = (t1 -. t0) *. 1e6 };
    Mutex.unlock mu
  end

let lane_items ~lane n = count (lane_counter lane) n

(* --------------------------------------------------------- GC gauges *)

let gc_gauges () =
  if Atomic.get on then begin
    let s = Gc.quick_stat () in
    gauge "gc.heap_words" (float_of_int s.Gc.heap_words);
    gauge "gc.minor_collections" (float_of_int s.Gc.minor_collections);
    gauge "gc.major_collections" (float_of_int s.Gc.major_collections);
    gauge "gc.compactions" (float_of_int s.Gc.compactions);
    gauge "gc.minor_words" s.Gc.minor_words
  end

(* ------------------------------------------------------------- snapshots *)

let rec tree_of_node n =
  {
    span_name = n.nname;
    calls = n.ncalls;
    wall_s = n.nwall;
    children =
      List.rev_map tree_of_node n.nchildren
      |> List.filter (fun t -> t.calls > 0 || t.children <> []);
  }

let owner_ctx () =
  Mutex.lock mu;
  let id = Atomic.get owner in
  let c = if id < 0 then None else List.find_opt (fun c -> c.cid = id) !ctxs in
  Mutex.unlock mu;
  c

let snapshot_spans () =
  match owner_ctx () with
  | None -> []
  | Some c -> (tree_of_node c.croot).children

let snapshot_events () =
  Mutex.lock mu;
  let evs = List.rev !events in
  Mutex.unlock mu;
  List.map (fun e -> (e.ev_name, e.ev_ts, e.ev_dur)) evs

let counters () =
  Mutex.lock mu;
  let xs =
    Hashtbl.fold (fun name r acc -> (name, !r) :: acc) counters_tbl []
  in
  Mutex.unlock mu;
  List.sort (fun (a, _) (b, _) -> String.compare a b) xs

let gauges () =
  Mutex.lock mu;
  let xs = Hashtbl.fold (fun name v acc -> (name, v) :: acc) gauges_tbl [] in
  Mutex.unlock mu;
  List.sort (fun (a, _) (b, _) -> String.compare a b) xs

(* ------------------------------------------------------------ JSON export *)

let buf_escape b s =
  Buffer.add_char b '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec buf_span b t =
  Buffer.add_string b "{\"name\": ";
  buf_escape b t.span_name;
  Buffer.add_string b (Printf.sprintf ", \"calls\": %d" t.calls);
  Buffer.add_string b (Printf.sprintf ", \"wall_s\": %.9f" t.wall_s);
  Buffer.add_string b ", \"children\": [";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_string b ", ";
      buf_span b c)
    t.children;
  Buffer.add_string b "]}"

let buf_hist b h =
  let n = Histogram.count h in
  Buffer.add_string b
    (Printf.sprintf "{\"count\": %d, \"sum\": %.17g, \"nonpos\": %d" n
       (Histogram.sum h) (Histogram.nonpos h));
  if n > Histogram.nonpos h then
    Buffer.add_string b
      (Printf.sprintf
         ", \"min\": %.9g, \"max\": %.9g, \"p50\": %.9g, \"p90\": %.9g, \
          \"p99\": %.9g"
         (Histogram.min_value h) (Histogram.max_value h)
         (Histogram.quantile h 0.50) (Histogram.quantile h 0.90)
         (Histogram.quantile h 0.99));
  Buffer.add_string b ", \"buckets\": [";
  List.iteri
    (fun k (i, c) ->
      if k > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "[%d, %d]" i c))
    (Histogram.buckets h);
  Buffer.add_string b "]}"

let session_root () =
  let tops = snapshot_spans () in
  let rems = remote_spans () in
  match tops with
  | [ t ] ->
    (* the normal root case: graft worker trees under the owner's root
       so the export keeps a single top-level span *)
    { t with children = List.fold_left merge_tree_into t.children rems }
  | ts ->
    let all = List.fold_left merge_tree_into ts rems in
    {
      span_name = "(session)";
      calls = 1;
      wall_s = List.fold_left (fun a t -> a +. t.wall_s) 0.0 all;
      children = all;
    }

let metrics_json () =
  let root = session_root () in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"root\": ";
  buf_span b root;
  Buffer.add_string b ",\n  \"counters\": {";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n    ";
      buf_escape b name;
      Buffer.add_string b (Printf.sprintf ": %d" v))
    (counters ());
  Buffer.add_string b "\n  },\n  \"gauges\": {";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n    ";
      buf_escape b name;
      Buffer.add_string b (Printf.sprintf ": %.17g" v))
    (gauges ());
  Buffer.add_string b "\n  },\n  \"histograms\": {";
  List.iteri
    (fun i (name, h) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n    ";
      buf_escape b name;
      Buffer.add_string b ": ";
      buf_hist b h)
    (histograms ());
  Buffer.add_string b "\n  }\n}\n";
  Buffer.contents b

let trace_json () =
  Mutex.lock mu;
  let evs = List.rev !events in
  let trks =
    Hashtbl.fold (fun tid name acc -> (tid, name) :: acc) tracks []
    |> List.sort compare
  in
  Mutex.unlock mu;
  let b = Buffer.create 8192 in
  Buffer.add_string b "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string b ",\n"
  in
  sep ();
  Buffer.add_string b
    " {\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", \
     \"args\": {\"name\": \"varsim\"}}";
  List.iter
    (fun (tid, name) ->
      sep ();
      Buffer.add_string b
        (Printf.sprintf
           " {\"ph\": \"M\", \"pid\": 1, \"tid\": %d, \"name\": \
            \"thread_name\", \"args\": {\"name\": " tid);
      buf_escape b name;
      Buffer.add_string b "}}")
    trks;
  List.iter
    (fun e ->
      sep ();
      Buffer.add_string b
        (Printf.sprintf " {\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": \
                         %.3f, \"dur\": %.3f, \"name\": " e.ev_tid e.ev_ts
           e.ev_dur);
      buf_escape b e.ev_name;
      Buffer.add_string b "}")
    evs;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

(* ------------------------------------------------------ Prometheus text *)

(* metric-name mangling: dots (and anything else outside the Prometheus
   alphabet) become underscores, with a varsim_ namespace prefix *)
let prom_name name =
  let b = Buffer.create (String.length name + 8) in
  Buffer.add_string b "varsim_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let prometheus () =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, v) ->
      let n = prom_name name ^ "_total" in
      Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n%s %d\n" n n v))
    (counters ());
  List.iter
    (fun (name, v) ->
      let n = prom_name name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n%s %.17g\n" n n v))
    (gauges ());
  List.iter
    (fun (name, h) ->
      let n = prom_name name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" n);
      (* nonpos observations (<= 0 / non-finite) sort below every
         finite bound, so they seed the cumulative count *)
      let cum = ref (Histogram.nonpos h) in
      List.iter
        (fun (i, c) ->
          cum := !cum + c;
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"%.9g\"} %d\n" n
               (Histogram.bucket_upper i) !cum))
        (Histogram.buckets h);
      Buffer.add_string b
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n (Histogram.count h));
      Buffer.add_string b
        (Printf.sprintf "%s_sum %.17g\n" n (Histogram.sum h));
      Buffer.add_string b
        (Printf.sprintf "%s_count %d\n" n (Histogram.count h)))
    (histograms ());
  Buffer.contents b

(* ------------------------------------------------------------- file export *)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* Telemetry export must never fail the analysis that produced it:
   injected faults (obs.export) and filesystem errors degrade to a
   stderr warning plus an obs.export.errors count. *)
let write_guarded what path contents =
  match
    Faultsim.check_exn "obs.export";
    write_file path contents
  with
  | () -> ()
  | exception (Faultsim.Injected _ | Sys_error _) ->
    count "obs.export.errors" 1;
    Printf.eprintf "varsim: warning: failed to write %s %s\n%!" what path

let write_metrics path = write_guarded "metrics" path (metrics_json ())
let write_trace path = write_guarded "trace" path (trace_json ())
