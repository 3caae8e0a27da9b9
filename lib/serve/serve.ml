(* varsim serve — the job-oriented service core (docs/serving.md).

   A Unix-domain-socket daemon around Spice_job.submit: clients send
   newline-delimited JSON requests, lanes (OCaml domains) compute them
   through the same elaborate -> plan -> execute pipeline as the CLI,
   and responses reuse the sweep journal's field vocabulary plus the
   job outcome (rendered output, fingerprint, cache_hit, provenance).

   Scheduling is fair round-robin across client connections: the next
   free lane takes the oldest job of the connection after the one
   served last, so one client streaming a thousand decks cannot starve
   an interactive one.  Each request may carry its own wall budget.

   SIGTERM/SIGINT drain: stop accepting connections and reading new
   requests, finish every queued and in-flight job, flush responses,
   exit 0.

   The main thread owns accept+read+parse (a select loop, so a single
   thread multiplexes every connection); lanes own compute+respond
   (per-connection write mutex).  Lanes.run is deliberately not used
   here — it fans out a fixed index range, not an open-ended request
   queue. *)

type config = {
  socket_path : string;
  lanes : int;
  cache : Cache.t option;
  default_budget_s : float option;
  log_path : string option;  (* JSON-lines event log, one record/request *)
  trace : bool;  (* keep span slices for a trace export after the drain *)
}

type job = {
  jid : string;
  req : int;  (* daemon-assigned monotonic request id *)
  enqueued_at : float;  (* for the queue-wait histogram *)
  deck_text : string;
  steps : int option;
  f_offset : float option;
  budget_s : float option;
  events : bool;  (* stream phase events back while computing *)
}

type conn = {
  fd : Unix.file_descr;
  cid : int;
  wmutex : Mutex.t;
  rbuf : Buffer.t;
  queue : job Queue.t;
  mutable read_open : bool;  (* still selected for reads *)
  mutable write_open : bool;  (* fd usable for writes *)
  mutable inflight : int;  (* queued + running jobs of this conn *)
}

type log_sink = { lfd : Unix.file_descr; lmu : Mutex.t }

type state = {
  cfg : config;
  m : Mutex.t;
  c : Condition.t;
  started : float;  (* daemon start, for uptime *)
  req_seq : int Atomic.t;  (* next request id; monotonic per daemon *)
  busy : int Atomic.t;  (* lanes currently running a job *)
  log : log_sink option;
  mutable conns : conn list;  (* accept order *)
  mutable cursor : int;  (* round-robin position over [conns] *)
  mutable pending : int;  (* queued jobs across all conns *)
  mutable draining : bool;
}

let stop_requested = Atomic.make false

(* ------------------------------------------------------------------ *)
(* wire format *)

let esc = Obs_json.escape

let write_line conn line =
  Mutex.lock conn.wmutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock conn.wmutex) @@ fun () ->
  if conn.write_open then begin
    let data = line ^ "\n" in
    let n = String.length data in
    let rec loop off =
      if off < n then
        match Unix.write_substring conn.fd data off (n - off) with
        | w -> loop (off + w)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop off
    in
    match loop 0 with
    | () -> ()
    | exception Unix.Unix_error _ ->
      (* client went away mid-response; nothing to do but stop writing *)
      conn.write_open <- false
  end

let event_line job ~phase ~state ?elapsed_s () =
  let tail =
    match elapsed_s with
    | Some dt -> Printf.sprintf ",\"elapsed_s\":%.3f" dt
    | None -> ""
  in
  Printf.sprintf "{\"id\":\"%s\",\"event\":\"phase\",\"phase\":\"%s\",\"state\":\"%s\"%s}"
    (esc job.jid) (esc phase) (esc state) tail

let error_line ?(jid = "") ?req msg =
  let req_part =
    match req with Some r -> Printf.sprintf ",\"req\":%d" r | None -> ""
  in
  Printf.sprintf "{\"id\":\"%s\"%s,\"outcome\":\"failed:%s\"}" (esc jid)
    req_part (esc msg)

let outcome_line job ~outcome ?output ?fingerprint ?(cache_hit = false)
    ?(degraded = 0) ~elapsed_s () =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "{\"id\":\"%s\",\"req\":%d,\"outcome\":\"%s\"" (esc job.jid)
       job.req (esc outcome));
  (match output with
   | Some o -> Buffer.add_string b
       (Printf.sprintf ",\"output\":\"%s\"" (esc o))
   | None -> ());
  (match fingerprint with
   | Some fp -> Buffer.add_string b
       (Printf.sprintf ",\"fingerprint\":\"%s\"" (esc fp))
   | None -> ());
  Buffer.add_string b
    (Printf.sprintf ",\"cache_hit\":%b,\"degraded\":%d,\"elapsed_s\":%.3f"
       cache_hit degraded elapsed_s);
  Buffer.add_string b
    (Printf.sprintf ",\"provenance\":\"%s\"}" (esc (Version.provenance ())));
  Buffer.contents b

let quantile_part name =
  let q p =
    match Obs.quantile name p with
    | Some v -> Printf.sprintf "%.9g" v
    | None -> "null"
  in
  Printf.sprintf "{\"p50\":%s,\"p90\":%s,\"p99\":%s}" (q 0.50) (q 0.90)
    (q 0.99)

let stats_line st ~req =
  (* metrics_json pretty-prints; the protocol is line-oriented, and
     JSON whitespace outside strings is insignificant (counter names
     never contain newlines) *)
  let flatten s =
    String.map (function '\n' | '\r' -> ' ' | c -> c) s
  in
  let cache_part =
    match st.cfg.cache with
    | None -> "\"cache\":null"
    | Some c ->
      Printf.sprintf "\"cache\":{\"disk\":%b,\"meta\":\"%s\"}"
        (Cache.has_disk c) (esc (Cache.meta c))
  in
  Obs.gc_gauges ();
  Printf.sprintf
    "{\"outcome\":\"stats\",\"req\":%d,\"version\":\"%s\",\"provenance\":\"%s\",%s,\"uptime_s\":%.3f,\"requests\":{\"ok\":%d,\"failed\":%d,\"timed_out\":%d},\"latency_s\":%s,\"queue_s\":%s,\"queue_depth\":%d,\"lanes\":%d,\"lanes_busy\":%d,\"metrics\":%s}"
    req (esc Version.version)
    (esc (Version.provenance ()))
    cache_part
    (Obs.now () -. st.started)
    (Obs.counter_value "serve.requests.ok")
    (Obs.counter_value "serve.requests.failed")
    (Obs.counter_value "serve.requests.timed_out")
    (quantile_part "serve.request.seconds")
    (quantile_part "serve.queue.seconds")
    st.pending (max 1 st.cfg.lanes) (Atomic.get st.busy)
    (flatten (Obs.metrics_json ()))

let metrics_line ~req =
  (* the protocol is line-oriented, so the Prometheus page travels as
     one JSON string; varsim top --prom (and the CI scraper) unescape
     it back to text *)
  Obs.gc_gauges ();
  Printf.sprintf "{\"outcome\":\"metrics\",\"req\":%d,\"text\":\"%s\"}" req
    (esc (Obs.prometheus ()))

(* -------------------------------------------------------- event log *)

(* One JSON record per finished request, appended as a single write to
   an O_APPEND fd under a mutex, so concurrent lanes never interleave
   records.  Log failure (injected via serve.log.write, or a real
   filesystem error) is counted and warned about, never propagated: an
   unlucky operator loses a log line, not a simulation. *)
let log_write st line =
  match st.log with
  | None -> ()
  | Some l -> (
    match
      Faultsim.check_exn "serve.log.write";
      let data = line ^ "\n" in
      let n = String.length data in
      Mutex.lock l.lmu;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock l.lmu)
        (fun () ->
          let rec go off =
            if off < n then
              go (off + Unix.write_substring l.lfd data off (n - off))
          in
          go 0)
    with
    | () -> ()
    | exception (Faultsim.Injected _ | Unix.Unix_error _) ->
      Obs.count "serve.log.errors" 1;
      Printf.eprintf "varsim serve: warning: event log write failed\n%!")

let log_record st job ~outcome ~queue_s ~elapsed_s ?fingerprint
    ?(cache_hit = false) () =
  if st.log <> None then
    log_write st
      (Printf.sprintf
         "{\"ts\":%.6f,\"req\":%d,\"id\":\"%s\",\"outcome\":\"%s\",\"queue_s\":%.6f,\"elapsed_s\":%.6f,\"fingerprint\":%s,\"cache_hit\":%b}"
         (Unix.gettimeofday ()) job.req (esc job.jid) (esc outcome) queue_s
         elapsed_s
         (match fingerprint with
          | Some fp -> Printf.sprintf "\"%s\"" (esc fp)
          | None -> "null")
         cache_hit)

(* ------------------------------------------------------------------ *)
(* request parsing *)

let parse_request line =
  match Obs_json.parse line with
  | exception Obs_json.Parse_error m -> Error ("bad request: " ^ m)
  | j -> (
    let str k =
      match Obs_json.member k j with
      | Some (Obs_json.Str s) -> Some s
      | _ -> None
    in
    let num k =
      match Obs_json.member k j with
      | Some (Obs_json.Num v) -> Some v
      | _ -> None
    in
    let flag k =
      match Obs_json.member k j with
      | Some (Obs_json.Bool b) -> b
      | _ -> false
    in
    match Option.value (str "op") ~default:"run" with
    | "stats" -> Ok `Stats
    | "metrics" -> Ok `Metrics
    | "run" -> (
      match str "deck" with
      | None -> Error "run request without a \"deck\" field"
      | Some deck_text ->
        Ok
          (`Run
             {
               jid = Option.value (str "id") ~default:"";
               req = 0;  (* stamped by handle_line *)
               enqueued_at = 0.0;
               deck_text;
               steps = Option.map int_of_float (num "steps");
               f_offset = num "f_offset";
               budget_s = num "budget_s";
               events = flag "events";
             }))
    | op -> Error ("unknown op " ^ op))

(* ------------------------------------------------------------------ *)
(* progress events: the lane installs the job's callback on its own
   domain for the length of the job, so only this job's spans reach it *)

let with_progress conn job f =
  if not job.events then f ()
  else begin
    Obs.set_progress
      (Some
         (fun name ev ->
           write_line conn
             (match ev with
              | `Begin -> event_line job ~phase:name ~state:"begin" ()
              | `End dt ->
                event_line job ~phase:name ~state:"end" ~elapsed_s:dt ())));
    Fun.protect ~finally:(fun () -> Obs.set_progress None) f
  end

(* ------------------------------------------------------------------ *)
(* lanes *)

let finish_job st conn =
  Mutex.lock st.m;
  conn.inflight <- conn.inflight - 1;
  let close_now = (not conn.read_open) && conn.inflight = 0 in
  if close_now then conn.write_open <- false;
  Mutex.unlock st.m;
  if close_now then try Unix.close conn.fd with Unix.Unix_error _ -> ()

let run_job st conn job =
  Obs.count "serve.jobs" 1;
  let t0 = Obs.now () in
  let queue_s = t0 -. job.enqueued_at in
  Obs.observe "serve.queue.seconds" queue_s;
  (* every terminal path of a run request lands here exactly once, so
     serve.request.seconds's _count is the number of requests served *)
  let conclude ~outcome ?fingerprint ?cache_hit () =
    let elapsed_s = Obs.now () -. t0 in
    Obs.observe "serve.request.seconds" elapsed_s;
    let cls =
      if outcome = "ok" || outcome = "degraded" then "ok"
      else if outcome = "timed_out" then "timed_out"
      else "failed"
    in
    Obs.count ("serve.requests." ^ cls) 1;
    log_record st job ~outcome ~queue_s ~elapsed_s ?fingerprint ?cache_hit ()
  in
  (* accounting (and the event-log record) always lands before the
     response line goes out: a client that scrapes the metrics op right
     after a response sees that request already counted *)
  let reject phase ln m =
    Obs.count "serve.errors" 1;
    let msg = Printf.sprintf "line %d: %s: %s" ln phase m in
    conclude ~outcome:("failed:" ^ msg) ();
    write_line conn (error_line ~jid:job.jid ~req:job.req msg)
  in
  match Spice_elab.load_string job.deck_text with
  | exception Spice_lexer.Lex_error (ln, m) -> reject "lex error" ln m
  | exception Spice_parser.Parse_error (ln, m) -> reject "parse error" ln m
  | exception Spice_elab.Elab_error (ln, m) ->
    reject "elaboration error" ln m
  | deck ->
    (* the request id rides in the label, so budget timeouts and
       Resilient failure messages name the request they belong to *)
    let label = Printf.sprintf "serve req#%d %s" job.req job.jid in
    let budget_s =
      match job.budget_s with
      | Some _ as b -> b
      | None -> st.cfg.default_budget_s
    in
    let budget =
      Option.map (fun s -> Budget.make ~wall_s:s ~label ()) budget_s
    in
    let req =
      Spice_job.request ?steps:job.steps ?f_offset:job.f_offset ?budget
        ?cache:st.cfg.cache deck
    in
    let out =
      with_progress conn job (fun () ->
          Resilient.run ?budget ~label (fun () -> Spice_job.submit req))
    in
    (match out.Resilient.result with
     | Ok o ->
       let outcome =
         if o.Spice_job.degradations + o.Spice_job.krylov_fallbacks > 0 then
           "degraded"
         else "ok"
       in
       if o.Spice_job.cache_hit then Obs.count "serve.requests.cache_hits" 1;
       conclude ~outcome ~fingerprint:o.Spice_job.fingerprint
         ~cache_hit:o.Spice_job.cache_hit ();
       write_line conn
         (outcome_line job ~outcome ~output:o.Spice_job.output
            ~fingerprint:o.Spice_job.fingerprint
            ~cache_hit:o.Spice_job.cache_hit
            ~degraded:(o.Spice_job.degradations + o.Spice_job.krylov_fallbacks)
            ~elapsed_s:out.Resilient.elapsed_s ())
     | Error (Resilient.Timed_out _) ->
       Obs.count "serve.timeouts" 1;
       conclude ~outcome:"timed_out" ();
       write_line conn
         (outcome_line job ~outcome:"timed_out"
            ~elapsed_s:out.Resilient.elapsed_s ())
     | Error f ->
       Obs.count "serve.errors" 1;
       let outcome = "failed:" ^ Resilient.describe f in
       conclude ~outcome ();
       write_line conn
         (outcome_line job ~outcome ~elapsed_s:out.Resilient.elapsed_s ()))

(* round-robin: scan connections starting after the one served last *)
let pick_locked st =
  let conns = Array.of_list st.conns in
  let n = Array.length conns in
  let rec go i =
    if i >= n then None
    else
      let k = (st.cursor + 1 + i) mod n in
      let conn = conns.(k) in
      if Queue.is_empty conn.queue then go (i + 1)
      else begin
        st.cursor <- k;
        st.pending <- st.pending - 1;
        Obs.gauge "serve.queue.depth" (float_of_int st.pending);
        Some (conn, Queue.pop conn.queue)
      end
  in
  if n = 0 then None else go 0

let next_job st =
  Mutex.lock st.m;
  let rec wait () =
    match pick_locked st with
    | Some _ as r ->
      Mutex.unlock st.m;
      r
    | None ->
      if st.draining then begin
        Mutex.unlock st.m;
        None
      end
      else begin
        Condition.wait st.c st.m;
        wait ()
      end
  in
  wait ()

let lane_loop st =
  let rec loop () =
    match next_job st with
    | None -> ()
    | Some (conn, job) ->
      Obs.gauge "serve.lanes.busy"
        (float_of_int (1 + Atomic.fetch_and_add st.busy 1));
      (match run_job st conn job with
       | () -> ()
       | exception e ->
         (* a lane must never die: anything unexpected becomes a failed
            response for this job only *)
         Obs.count "serve.errors" 1;
         write_line conn
           (error_line ~jid:job.jid ~req:job.req (Printexc.to_string e)));
      Obs.gauge "serve.lanes.busy"
        (float_of_int (Atomic.fetch_and_add st.busy (-1) - 1));
      finish_job st conn;
      loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* main thread: accept + read + parse + enqueue *)

let handle_line st conn line =
  let line = String.trim line in
  if line <> "" then begin
    (* every request line gets the next monotonic id, stamped into the
       response, so client logs and the daemon's event log correlate *)
    let req = Atomic.fetch_and_add st.req_seq 1 in
    match parse_request line with
    | Error m ->
      Obs.count "serve.errors" 1;
      write_line conn (error_line ~req m)
    | Ok `Stats -> write_line conn (stats_line st ~req)
    | Ok `Metrics -> write_line conn (metrics_line ~req)
    | Ok (`Run job) ->
      let job = { job with req; enqueued_at = Obs.now () } in
      Mutex.lock st.m;
      Queue.push job conn.queue;
      conn.inflight <- conn.inflight + 1;
      st.pending <- st.pending + 1;
      Obs.gauge "serve.queue.depth" (float_of_int st.pending);
      Condition.signal st.c;
      Mutex.unlock st.m
  end

let drain_buffer st conn =
  let s = Buffer.contents conn.rbuf in
  match String.rindex_opt s '\n' with
  | None -> ()
  | Some last ->
    Buffer.clear conn.rbuf;
    Buffer.add_string conn.rbuf
      (String.sub s (last + 1) (String.length s - last - 1));
    String.split_on_char '\n' (String.sub s 0 last)
    |> List.iter (handle_line st conn)

let read_chunk st conn =
  let buf = Bytes.create 65536 in
  match Unix.read conn.fd buf 0 (Bytes.length buf) with
  | 0 ->
    (* EOF: no more requests from this client; keep the fd for writes
       until its in-flight jobs answered *)
    Mutex.lock st.m;
    conn.read_open <- false;
    let close_now = conn.inflight = 0 in
    if close_now then conn.write_open <- false;
    Mutex.unlock st.m;
    if close_now then (try Unix.close conn.fd with Unix.Unix_error _ -> ())
  | n ->
    Buffer.add_subbytes conn.rbuf buf 0 n;
    drain_buffer st conn
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    ()
  | exception Unix.Unix_error _ ->
    Mutex.lock st.m;
    conn.read_open <- false;
    conn.write_open <- false;
    Mutex.unlock st.m;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ())

let bind_socket path =
  (match Unix.lstat path with
   | { Unix.st_kind = Unix.S_SOCK; _ } -> begin
     (* a previous daemon's socket: live means "address in use", dead
        means stale and safe to replace *)
     let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     match Unix.connect probe (Unix.ADDR_UNIX path) with
     | () ->
       Unix.close probe;
       failwith (Printf.sprintf "socket %s already has a live server" path)
     | exception Unix.Unix_error _ ->
       Unix.close probe;
       (try Unix.unlink path with Unix.Unix_error _ -> ())
   end
   | _ -> failwith (Printf.sprintf "%s exists and is not a socket" path)
   | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let default_config ?(lanes = 2) ?cache ?default_budget_s ?log_path
    ?(trace = false) socket_path =
  { socket_path; lanes; cache; default_budget_s; log_path; trace }

let run cfg =
  Atomic.set stop_requested false;
  let listen_fd = bind_socket cfg.socket_path in
  (* counters (cache hit/miss, serve.jobs) must tick even when no
     --metrics file was requested: the stats op reads them live *)
  Obs.enable ~timeline:cfg.trace ();
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let stop _ = Atomic.set stop_requested true in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle stop) in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle stop) in
  let log =
    match cfg.log_path with
    | None -> None
    | Some path ->
      Some
        {
          lfd =
            Unix.openfile path
              [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
              0o644;
          lmu = Mutex.create ();
        }
  in
  let st =
    { cfg; m = Mutex.create (); c = Condition.create ();
      started = Unix.gettimeofday (); req_seq = Atomic.make 1;
      busy = Atomic.make 0; log; conns = []; cursor = 0; pending = 0;
      draining = false }
  in
  let lanes =
    List.init (max 1 cfg.lanes) (fun _ -> Domain.spawn (fun () -> lane_loop st))
  in
  Printf.eprintf "varsim serve: listening on %s (%d lane%s)\n%!"
    cfg.socket_path (max 1 cfg.lanes) (if cfg.lanes = 1 then "" else "s");
  let next_cid = ref 0 in
  (* accept/read loop; 0.25 s tick bounds the signal-to-drain latency *)
  while not (Atomic.get stop_requested) do
    (* drop fully-finished connections: a kernel-reused fd number must
       never alias a stale entry (the lookup below matches on fd) *)
    Mutex.lock st.m;
    st.conns <-
      List.filter
        (fun c -> c.read_open || c.write_open || c.inflight > 0)
        st.conns;
    Mutex.unlock st.m;
    let rfds =
      listen_fd
      :: List.filter_map
           (fun c -> if c.read_open then Some c.fd else None)
           st.conns
    in
    match Unix.select rfds [] [] 0.25 with
    | ready, _, _ ->
      List.iter
        (fun fd ->
          if fd == listen_fd then begin
            match Unix.accept listen_fd with
            | cfd, _ ->
              Obs.count "serve.connections" 1;
              incr next_cid;
              let conn =
                { fd = cfd; cid = !next_cid; wmutex = Mutex.create ();
                  rbuf = Buffer.create 4096; queue = Queue.create ();
                  read_open = true; write_open = true; inflight = 0 }
              in
              Mutex.lock st.m;
              st.conns <- st.conns @ [ conn ];
              Mutex.unlock st.m
            | exception Unix.Unix_error _ -> ()
          end
          else
            match
              List.find_opt (fun c -> c.read_open && c.fd == fd) st.conns
            with
            | Some conn -> read_chunk st conn
            | None -> ())
        ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (* drain: no new connections or requests; finish everything queued *)
  Printf.eprintf "varsim serve: draining...\n%!";
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  Mutex.lock st.m;
  st.draining <- true;
  Condition.broadcast st.c;
  Mutex.unlock st.m;
  List.iter Domain.join lanes;
  List.iter
    (fun c ->
      if c.write_open || c.read_open then
        try Unix.close c.fd with Unix.Unix_error _ -> ())
    st.conns;
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  (match st.log with
   | Some l -> ( try Unix.close l.lfd with Unix.Unix_error _ -> ())
   | None -> ());
  Sys.set_signal Sys.sigterm old_term;
  Sys.set_signal Sys.sigint old_int;
  Printf.eprintf "varsim serve: drained, bye\n%!"

(* ------------------------------------------------------------------ *)
(* client side: varsim submit *)

let request_json ?(id = "") ?steps ?f_offset ?budget_s ?(events = false)
    deck_text =
  let b = Buffer.create (String.length deck_text + 128) in
  Buffer.add_string b
    (Printf.sprintf "{\"op\":\"run\",\"id\":\"%s\",\"deck\":\"%s\"" (esc id)
       (esc deck_text));
  (match steps with
   | Some s -> Buffer.add_string b (Printf.sprintf ",\"steps\":%d" s)
   | None -> ());
  (match f_offset with
   | Some f -> Buffer.add_string b (Printf.sprintf ",\"f_offset\":%.17g" f)
   | None -> ());
  (match budget_s with
   | Some s -> Buffer.add_string b (Printf.sprintf ",\"budget_s\":%.17g" s)
   | None -> ());
  if events then Buffer.add_string b ",\"events\":true";
  Buffer.add_char b '}';
  Buffer.contents b

let stats_request = "{\"op\":\"stats\"}"
let metrics_request = "{\"op\":\"metrics\"}"

(* Send one request line; stream phase-event lines to [on_event] as
   they arrive; return the first non-event response as (raw line,
   parsed). *)
let call ?(on_event = fun _ -> ()) ~socket_path line =
  let fd =
    try
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_UNIX socket_path)
       with e -> Unix.close fd; raise e);
      Ok fd
    with
    | Unix.Unix_error (e, _, _) ->
      Error
        (Printf.sprintf "cannot connect to %s: %s" socket_path
           (Unix.error_message e))
  in
  match fd with
  | Error _ as e -> e
  | Ok fd ->
    Fun.protect ~finally:(fun () ->
        try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    let data = line ^ "\n" in
    let n = String.length data in
    let rec send off =
      if off < n then send (off + Unix.write_substring fd data off (n - off))
    in
    (match send 0 with
     | () -> (
       let buf = Bytes.create 65536 in
       let acc = Buffer.create 4096 in
       let rec read_response () =
         (* pull complete lines out of acc first *)
         let s = Buffer.contents acc in
         match String.index_opt s '\n' with
         | Some i -> (
           let line = String.sub s 0 i in
           Buffer.clear acc;
           Buffer.add_string acc
             (String.sub s (i + 1) (String.length s - i - 1));
           match Obs_json.parse line with
           | exception Obs_json.Parse_error m ->
             Error ("bad response: " ^ m)
           | j -> (
             match Obs_json.member "event" j with
             | Some _ ->
               on_event j;
               read_response ()
             | None -> Ok (line, j)))
         | None -> (
           match Unix.read fd buf 0 (Bytes.length buf) with
           | 0 -> Error "server closed the connection before responding"
           | r ->
             Buffer.add_subbytes acc buf 0 r;
             read_response ()
           | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_response ())
       in
       read_response ())
     | exception Unix.Unix_error (e, _, _) ->
       Error ("send failed: " ^ Unix.error_message e))
