type isolation = Process | Domains | Auto_iso

let isolation_of_string = function
  | "process" -> Some Process
  | "domain" | "domains" -> Some Domains
  | "auto" -> Some Auto_iso
  | _ -> None

let isolation_to_string = function
  | Process -> "process"
  | Domains -> "domain"
  | Auto_iso -> "auto"

type config = {
  spec_path : string;
  out_prefix : string;
  isolation : isolation;
  jobs : int;
  resume : bool;
  budget : Budget.t option;
  progress : bool;
}

type summary = {
  total : int;
  skipped : int;
  ok : int;
  degraded : int;
  timed_out : int;
  crashed : int;
  failed : int;
  retries : int;
  partial : bool;
}

let csv_path prefix = prefix ^ ".csv"
let json_path prefix = prefix ^ ".json"
let journal_path prefix = prefix ^ ".journal"

(* ------------------------------------------------------------------ *)
(* outcome bookkeeping *)

let signal_name s =
  if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigabrt then "SIGABRT"
  else if s = Sys.sigbus then "SIGBUS"
  else if s = Sys.sigill then "SIGILL"
  else if s = Sys.sigfpe then "SIGFPE"
  else if s = Sys.sigint then "SIGINT"
  else Printf.sprintf "sig%d" s

let outcome_is_ok o = o = "ok" || o = "degraded"

let count_outcome sum outcome =
  if outcome = "ok" then { sum with ok = sum.ok + 1 }
  else if outcome = "degraded" then { sum with degraded = sum.degraded + 1 }
  else if outcome = "timed_out" then { sum with timed_out = sum.timed_out + 1 }
  else if String.length outcome >= 7 && String.sub outcome 0 7 = "crashed" then
    { sum with crashed = sum.crashed + 1 }
  else { sum with failed = sum.failed + 1 }

(* ------------------------------------------------------------------ *)
(* artifacts *)

let write_atomic path content =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc content;
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp path

let csv_quote s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\""
    ^ String.concat "\"\"" (String.split_on_char '"' s)
    ^ "\""
  else s

(* CSV cells use only deterministic per-point data (no wall times, no
   attempt counts), so an interrupted-and-resumed sweep reproduces an
   uninterrupted run's artifact byte for byte *)
let csv_content (spec : Sweep_spec.t) points entries ~completed ~partial =
  let b = Buffer.create 4096 in
  Buffer.add_string b "id";
  List.iter
    (fun a ->
      Buffer.add_char b ',';
      Buffer.add_string b a.Sweep_spec.axis_name)
    spec.Sweep_spec.axes;
  Buffer.add_string b ",outcome,metric,value,degraded\n";
  Array.iter
    (fun (point : Sweep_spec.point) ->
      match Hashtbl.find_opt entries point.Sweep_spec.id with
      | None -> ()
      | Some (e : Sweep_journal.entry) ->
        Buffer.add_string b (string_of_int point.Sweep_spec.id);
        List.iter
          (fun (_, v) ->
            Buffer.add_char b ',';
            Buffer.add_string b (csv_quote (Sweep_spec.value_to_string v)))
          point.Sweep_spec.assigns;
        Buffer.add_char b ',';
        Buffer.add_string b (csv_quote e.Sweep_journal.outcome);
        Buffer.add_char b ',';
        Buffer.add_string b e.Sweep_journal.metric;
        Buffer.add_char b ',';
        (match e.Sweep_journal.value with
         | Some v -> Buffer.add_string b (Printf.sprintf "%.17g" v)
         | None -> ());
        Buffer.add_char b ',';
        Buffer.add_string b (string_of_int e.Sweep_journal.degraded);
        Buffer.add_char b '\n')
    points;
  if partial then
    Buffer.add_string b
      (Printf.sprintf "# partial: budget expired after %d/%d points\n"
         completed (Array.length points));
  Buffer.contents b

let json_content (_spec : Sweep_spec.t) points entries ~completed ~partial =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "{\"total\":%d,\"completed\":%d,\"partial\":%b,\"points\":["
       (Array.length points) completed partial);
  let first = ref true in
  Array.iter
    (fun (point : Sweep_spec.point) ->
      match Hashtbl.find_opt entries point.Sweep_spec.id with
      | None -> ()
      | Some (e : Sweep_journal.entry) ->
        if not !first then Buffer.add_char b ',';
        first := false;
        Buffer.add_string b
          (Printf.sprintf "{\"id\":%d,\"params\":{" point.Sweep_spec.id);
        List.iteri
          (fun i (name, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_string b
              (Printf.sprintf "\"%s\":\"%s\"" name
                 (Sweep_spec.value_to_string v)))
          point.Sweep_spec.assigns;
        Buffer.add_string b "},";
        Buffer.add_string b
          (Printf.sprintf "\"outcome\":\"%s\",\"metric\":\"%s\",\"value\":%s,\"degraded\":%d}"
             e.Sweep_journal.outcome e.Sweep_journal.metric
             (match e.Sweep_journal.value with
              | Some v -> Printf.sprintf "\"%.17g\"" v
              | None -> "null")
             e.Sweep_journal.degraded))
    points;
  Buffer.add_string b "]}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* the retry rule *)

type verdict =
  | Final of Sweep_journal.entry
  | Transient of Sweep_journal.entry
  | Aborted

let retry_loop ~max_retries ~backoff_s ~expired ~before_retry attempt =
  let rec go k =
    match attempt () with
    | Final e -> Final { e with Sweep_journal.attempts = k }
    | Transient e when k > max_retries ->
      Transient { e with Sweep_journal.attempts = k }
    | Transient _ when expired () -> Aborted
    | Transient e ->
      Obs.count "sweep.retries" 1;
      before_retry { e with Sweep_journal.attempts = k }
        (Retry.backoff_delay ~base:backoff_s ~attempt:k);
      go (k + 1)
    | Aborted -> Aborted
  in
  go 1

(* ------------------------------------------------------------------ *)
(* shared run state *)

type state = {
  conf : config;
  spec : Sweep_spec.t;
  points : Sweep_spec.point array;
  hashes : string array;
  entries : (int, Sweep_journal.entry) Hashtbl.t;  (* id -> terminal entry *)
  journal : Sweep_journal.t;
  state_mutex : Mutex.t;  (* entries + counters, shared by the lanes *)
  mutable retries_used : int;
  mutable done_count : int;
  to_run_total : int;
}

let expired st =
  match st.conf.budget with Some b -> Budget.expired b | None -> false

let journal_append st entry =
  match Sweep_journal.append st.journal entry with
  | () -> ()
  | exception e ->
    (* a journal write failure degrades durability, never the run: the
       result stays in memory for this run's artifacts and the point
       will simply be re-run on resume *)
    Obs.count "sweep.journal.errors" 1;
    Printf.eprintf "varsim sweep: warning: journal write failed (%s)\n%!"
      (match e with
       | Faultsim.Injected m -> "injected fault: " ^ m
       | Unix.Unix_error (err, _, _) -> Unix.error_message err
       | e -> Printexc.to_string e)

let record st (entry : Sweep_journal.entry) =
  let attempts = entry.Sweep_journal.attempts in
  Mutex.lock st.state_mutex;
  Hashtbl.replace st.entries entry.Sweep_journal.id entry;
  st.retries_used <- st.retries_used + (attempts - 1);
  st.done_count <- st.done_count + 1;
  let k = st.done_count in
  Mutex.unlock st.state_mutex;
  journal_append st entry;
  Obs.count "sweep.points.completed" 1;
  Obs.observe "sweep.point.seconds" entry.Sweep_journal.elapsed_s;
  Obs.count ("sweep.points." ^ (if outcome_is_ok entry.Sweep_journal.outcome
                                then "ok" else "bad")) 1;
  if st.conf.progress then
    Printf.eprintf "varsim sweep: [%d/%d] point %d %s (%.2fs%s)\n%!" k
      st.to_run_total entry.Sweep_journal.id entry.Sweep_journal.outcome
      entry.Sweep_journal.elapsed_s
      (if attempts > 1 then Printf.sprintf ", %d attempts" attempts else "")

(* one point, from claim to record: attempts under the retry rule, then
   the terminal entry is journaled — or nothing is, when the global
   budget aborted the point before it had its fair chance *)
let settle st attempt =
  match
    retry_loop ~max_retries:st.spec.Sweep_spec.max_retries
      ~backoff_s:st.spec.Sweep_spec.retry_backoff_s
      ~expired:(fun () -> expired st)
      ~before_retry:(fun (e : Sweep_journal.entry) delay ->
        if st.conf.progress then
          Printf.eprintf
            "varsim sweep: point %d attempt %d %s; retrying in %.2gs\n%!"
            e.Sweep_journal.id e.Sweep_journal.attempts
            e.Sweep_journal.outcome delay;
        Unix.sleepf delay)
      attempt
  with
  | Final e | Transient e -> record st e
  | Aborted -> Obs.count "sweep.aborted_in_flight" 1

(* the entry of an attempt that produced no reading *)
let bare_entry ~hash (point : Sweep_spec.point) ~elapsed_s outcome =
  {
    Sweep_journal.hash;
    id = point.Sweep_spec.id;
    outcome;
    metric = "none";
    value = None;
    degraded = 0;
    attempts = 1;
    elapsed_s;
  }

(* ------------------------------------------------------------------ *)
(* process isolation: one supervised child per attempt *)

(* SIGTERM -> SIGKILL grace for a worker past its point deadline.  The
   worker installs no SIGTERM handler, so SIGTERM ends it at once; the
   grace only bounds a child that somehow survives it. *)
let sigterm_grace = 1.0

(* how often a lane blocked on its child wakes to enforce the point
   deadline and the global budget; EOF wakes it at once *)
let tick_s = 0.02

let spawn st point hash =
  Faultsim.check_exn "sweep.worker.spawn";
  let base =
    [ Sys.executable_name; "worker"; st.conf.spec_path; "--index";
      string_of_int point.Sweep_spec.id; "--hash"; hash ]
  in
  let base =
    match st.spec.Sweep_spec.point_budget_s with
    | Some s -> base @ [ "--point-budget"; Printf.sprintf "%.17g" s ]
    | None -> base
  in
  (* crash injection: the visit is counted here (parent side, so a
     [:0:] trigger is one transient across the whole run), but the
     death is delivered by the worker itself — it SIGKILLs itself
     before touching the point, so the injected crash can never race
     the point's completion *)
  (* relay our own telemetry state: an enabled supervisor asks each
     worker to ship its Obs snapshot back over the result pipe *)
  let base = if Obs.enabled () then base @ [ "--telemetry" ] else base in
  let argv =
    match Faultsim.fire "sweep.worker.crash" with
    | Some _ -> base @ [ "--crash-now" ]
    | None -> base
  in
  (* every descriptor is close-on-exec: a child that another lane spawns
     at the same moment must not inherit this lane's pipe, or this
     lane's EOF would wait for that other child to exit *)
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  match Unix.pipe ~cloexec:true () with
  | exception e ->
    Unix.close devnull;
    raise e
  | r, w -> (
    match
      Unix.create_process Sys.executable_name (Array.of_list argv) devnull w
        Unix.stderr
    with
    | pid ->
      Unix.close devnull;
      Unix.close w;
      Obs.count "sweep.workers.spawned" 1;
      (pid, r)
    | exception e ->
      List.iter Unix.close [ devnull; r; w ];
      raise e)

let last_line s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> String.trim l <> "")
  |> List.rev
  |> function
  | [] -> None
  | l :: _ -> Some l

(* Fold a finished worker's telemetry line(s) into the fleet snapshot.
   Only called for workers that produced a trusted result: the partial
   output of a crashed or reaped worker is dropped whole —
   Obs_wire.ingest_line mutates nothing on a malformed line, so a
   kill -9 mid-write can never corrupt the merged trace.  The track id
   is keyed by the point's content hash, so every attempt of a point
   (and every run of the same spec) lands on the same track. *)
let ingest_telemetry ~hash (point : Sweep_spec.point) output =
  if Obs.enabled () then
    String.split_on_char '\n' output
    |> List.iter (fun line ->
           let line = String.trim line in
           if Obs_wire.looks_like line then
             if
               Obs_wire.ingest_line ~key:hash
                 ~track:(Printf.sprintf "point %d" point.Sweep_spec.id)
                 line
             then Obs.count "sweep.telemetry.merged" 1
             else Obs.count "sweep.telemetry.dropped" 1)

let rec wait_child pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_child pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Unix.WEXITED 0

(* Spawn the worker, block on its pipe until EOF and reap it.  The lane
   enforces the point deadline itself (SIGTERM, then SIGKILL after
   [sigterm_grace]) and the global budget (SIGKILL, and the point is not
   journaled: a resumed run must not trust it). *)
let attempt_process st point hash () =
  let started = Budget.now () in
  let bare outcome =
    bare_entry ~hash point ~elapsed_s:(Budget.now () -. started) outcome
  in
  match spawn st point hash with
  | exception (Faultsim.Injected _ | Unix.Unix_error _) ->
    (* a spawn fault costs one attempt, like a crash *)
    Obs.count "sweep.spawn_failures" 1;
    Transient (bare "failed:worker spawn failed")
  | pid, fd ->
    let kill s = try Unix.kill pid s with Unix.Unix_error _ -> () in
    let deadline =
      Option.map (fun s -> started +. s) st.spec.Sweep_spec.point_budget_s
    in
    let timeout =
      if deadline = None && st.conf.budget = None then -1.0 else tick_s
    in
    let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
    let term_at = ref None and aborted = ref false in
    let rec pump () =
      if (not !aborted) && expired st then begin
        aborted := true;
        kill Sys.sigkill
      end;
      let now = Budget.now () in
      (match deadline, !term_at with
       | Some d, None when now > d ->
         term_at := Some now;
         Obs.count "sweep.deadline_kills" 1;
         kill Sys.sigterm
       | _, Some t when now > t +. sigterm_grace -> kill Sys.sigkill
       | _ -> ());
      let readable =
        match Unix.select [ fd ] [] [] timeout with
        | r, _, _ -> r <> []
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
      in
      if not readable then pump ()
      else
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          pump ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ()
    in
    Fun.protect ~finally:(fun () -> Unix.close fd) pump;
    let status = wait_child pid in
    if !aborted then Aborted
    else if !term_at <> None then Transient (bare "timed_out")
    else
      match status with
      | Unix.WEXITED 0 -> begin
        let output = Buffer.contents buf in
        match Option.bind (last_line output) Sweep_journal.entry_of_json with
        (* a worker-internal cooperative timeout is the same transient as
           a deadline kill: retry it *)
        | Some e when e.Sweep_journal.hash = hash
                      && e.Sweep_journal.outcome = "timed_out" ->
          Transient (bare "timed_out")
        | Some e when e.Sweep_journal.hash = hash ->
          ingest_telemetry ~hash point output;
          Final e
        | Some _ -> Final (bare "failed:worker answered for a different point")
        | None -> Final (bare "failed:worker protocol error: no result line")
      end
      | Unix.WEXITED n ->
        Final (bare (Printf.sprintf "failed:worker exited with code %d" n))
      | Unix.WSIGNALED s | Unix.WSTOPPED s ->
        Transient (bare ("crashed:" ^ signal_name s))

(* ------------------------------------------------------------------ *)
(* domain isolation: the point computed in-process *)

let attempt_domain st point hash () =
  match
    Sweep_worker.run_point ?budget_s:st.spec.Sweep_spec.point_budget_s ~hash
      st.spec point
  with
  | e when e.Sweep_journal.outcome = "timed_out" -> Transient e
  | e -> Final e
  | exception e ->
    (* in-process "crash isolation": an escaping exception is contained
       to the point *)
    Final
      (bare_entry ~hash point ~elapsed_s:0.0
         ("failed:uncaught exception: " ^ Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* lanes *)

(* Process lanes are systhreads: each only blocks on its own child, so
   it needs no domain.  Domain lanes raised the sweep's peak RSS, and a
   process holds at most 128 domains while --jobs may ask for more lanes
   (docs/parallelism.md).  These lanes open no Obs spans (threads share
   the domain's span stack); counters, merges and lane slices are
   mutex-guarded. *)
let thread f =
  let t = Thread.create f () in
  fun () -> Thread.join t

(* [jobs] lanes each claim the next pending point and settle it.  The
   isolation picks only the attempt and the spawner: domain lanes
   compute in-process, process lanes supervise a worker each. *)
let run_lanes st isolation =
  let attempt, spawn =
    match isolation with
    | Domains -> (attempt_domain st, Lanes.domain)
    | Process | Auto_iso -> (attempt_process st, thread)
  in
  Lanes.run ~spawn ~lanes:st.conf.jobs ~label:"sweep.point"
    ?should_stop:(Budget.stop_opt st.conf.budget) (Array.length st.points)
    (fun i -> settle st (attempt st.points.(i) st.hashes.(i)))

(* ------------------------------------------------------------------ *)
(* the run driver *)

let resolve_isolation (spec : Sweep_spec.t) = function
  | (Process | Domains) as i -> i
  | Auto_iso -> (
    (* direct DC analyses are milliseconds per point: the supervised
       process spawn would dominate, so fan them out in-process; the
       PSS-based analyses get full crash isolation *)
    match spec.Sweep_spec.analysis with
    | Sweep_spec.Op | Sweep_spec.Dc_match -> Domains
    | Sweep_spec.Mismatch | Sweep_spec.Freq -> Process)

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>sweep: %d point(s): %d ok, %d degraded, %d timed out, %d crashed, \
     %d failed%s@,%d journaled point(s) reused, %d retr%s consumed%s@]"
    s.total s.ok s.degraded s.timed_out s.crashed s.failed
    (if s.partial then " (PARTIAL: budget expired)" else "")
    s.skipped s.retries
    (if s.retries = 1 then "y" else "ies")
    (if s.partial then "; artifacts flagged partial" else "")

let run conf (spec : Sweep_spec.t) =
  Obs.span "sweep" @@ fun () ->
  let all_points = Obs.span "sweep.expand" (fun () -> Sweep_spec.expand spec) in
  let all_hashes =
    Array.map (fun p -> Sweep_spec.point_hash spec p) all_points
  in
  Obs.count "sweep.points" (Array.length all_points);
  let jpath = journal_path conf.out_prefix in
  let journaled =
    if conf.resume then Sweep_journal.load jpath
    else begin
      if Sys.file_exists jpath then Sys.remove jpath;
      []
    end
  in
  let by_hash = Hashtbl.create 64 in
  List.iter
    (fun (e : Sweep_journal.entry) ->
      Hashtbl.replace by_hash e.Sweep_journal.hash e)
    journaled;
  let entries = Hashtbl.create 64 in
  let skipped = ref 0 in
  let pending = ref [] in
  Array.iteri
    (fun i (point : Sweep_spec.point) ->
      match Hashtbl.find_opt by_hash all_hashes.(i) with
      | Some e ->
        incr skipped;
        Hashtbl.replace entries point.Sweep_spec.id
          { e with Sweep_journal.id = point.Sweep_spec.id }
      | None -> pending := (point, all_hashes.(i)) :: !pending)
    all_points;
  let pending = Array.of_list (List.rev !pending) in
  Obs.count "sweep.points.skipped" !skipped;
  if conf.progress && !skipped > 0 then
    Printf.eprintf "varsim sweep: resuming: %d/%d point(s) journaled\n%!"
      !skipped (Array.length all_points);
  match Sweep_journal.open_append jpath with
  | exception Unix.Unix_error (err, _, _) ->
    Error
      (Printf.sprintf "cannot open journal %s: %s" jpath
         (Unix.error_message err))
  | journal ->
    let st =
      {
        conf;
        spec;
        points = Array.map fst pending;
        hashes = Array.map snd pending;
        entries;
        journal;
        state_mutex = Mutex.create ();
        retries_used = 0;
        done_count = 0;
        to_run_total = Array.length pending;
      }
    in
    Fun.protect
      ~finally:(fun () -> Sweep_journal.close journal)
      (fun () ->
        Obs.span "sweep.points" (fun () ->
            if Array.length pending > 0 then
              run_lanes st (resolve_isolation spec conf.isolation)));
    let completed = Hashtbl.length entries in
    let partial = completed < Array.length all_points && expired st in
    if partial then Obs.count "sweep.budget_expired" 1;
    Obs.span "sweep.artifacts" (fun () ->
        write_atomic (csv_path conf.out_prefix)
          (csv_content spec all_points entries ~completed ~partial);
        write_atomic (json_path conf.out_prefix)
          (json_content spec all_points entries ~completed ~partial));
    let sum =
      Hashtbl.fold
        (fun _ (e : Sweep_journal.entry) sum ->
          count_outcome sum e.Sweep_journal.outcome)
        entries
        {
          total = Array.length all_points;
          skipped = !skipped;
          ok = 0;
          degraded = 0;
          timed_out = 0;
          crashed = 0;
          failed = 0;
          retries = st.retries_used;
          partial;
        }
    in
    Ok sum
