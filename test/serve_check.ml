(* End-to-end check of the varsim serve daemon against the real binary
   (argv.(1)), driven through the Serve client helpers
   (docs/serving.md):

   - an identical deck submitted twice: the second response reports a
     cache hit and carries byte-identical output;
   - the daemon survives a restart with the same --cache directory and
     serves the result from the durable tier;
   - phase events stream when the request asks for them;
   - the stats op answers live counters as well-formed JSON, plus the
     fleet fields (uptime, request counts by outcome, latency/queue
     quantiles, lane occupancy);
   - every response carries the daemon's monotonic request id;
   - the metrics op answers a Prometheus page whose request-latency
     _count equals the number of run requests served;
   - --log writes one JSON event record per finished run request, and
     an injected serve.log.write fault costs only the record, never
     the request;
   - malformed decks and malformed request lines produce structured
     failure responses, not connection drops;
   - a deck submitted by `varsim submit` and the same deck text in a
     bare protocol request share one fingerprint and one cache entry,
     and a request carrying an unknown field (a "domains" count) gets
     the same answer;
   - SIGTERM drains cleanly: exit 0 and the socket unlinked. *)

let varsim =
  let p = Sys.argv.(1) in
  if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

let failures = ref 0

let check name ok =
  if ok then Printf.printf "ok - %s\n%!" name
  else begin
    incr failures;
    Printf.printf "FAIL - %s\n%!" name
  end

let deck =
  "serve check divider\n\
   V1 in 0 2.0\n\
   R1 in out 10k tol=0.01\n\
   R2 out 0 10k tol=0.01\n\
   .op\n\
   .dcmatch out\n\
   .end\n"

let str k j =
  match Obs_json.member k j with
  | Some (Obs_json.Str s) -> Some s
  | _ -> None

let flag k j =
  match Obs_json.member k j with
  | Some (Obs_json.Bool b) -> b
  | _ -> false

let num k j =
  match Obs_json.member k j with
  | Some (Obs_json.Num v) -> Some v
  | _ -> None

let call ?on_event ~socket line =
  match Serve.call ?on_event ~socket_path:socket line with
  | Ok r -> r
  | Error m -> failwith ("call: " ^ m)

let wait_for_socket path =
  let rec loop n =
    if n = 0 then failwith ("daemon never bound " ^ path)
    else if Sys.file_exists path then ()
    else begin
      Unix.sleepf 0.1;
      loop (n - 1)
    end
  in
  loop 100

let start_daemon ?faults ?event_log ~socket ~cache_dir ~log () =
  let logfd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let argv =
    [ varsim; "serve"; "--socket"; socket; "--lanes"; "2"; "--cache";
      cache_dir ]
    @ (match event_log with Some f -> [ "--log"; f ] | None -> [])
  in
  let env =
    Unix.environment () |> Array.to_list
    |> List.filter (fun kv ->
           not (String.starts_with ~prefix:"VARSIM_FAULTS=" kv))
    |> (fun e ->
         match faults with Some s -> ("VARSIM_FAULTS=" ^ s) :: e | None -> e)
    |> Array.of_list
  in
  let pid =
    Unix.create_process_env varsim (Array.of_list argv) env devnull logfd logfd
  in
  Unix.close devnull;
  Unix.close logfd;
  wait_for_socket socket;
  pid

let stop_daemon pid =
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  status

(* remove [path] and everything under it, not following symlinks:
   the private temp dir goes on exit, whether the checks passed,
   failed or raised *)
let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "varsim_serve_%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  at_exit (fun () -> rm_rf dir);
  let socket = Filename.concat dir "d.sock" in
  let cache_dir = Filename.concat dir "cache" in
  let log = Filename.concat dir "serve.log" in
  let event_log = Filename.concat dir "events.jsonl" in

  let pid = start_daemon ~event_log ~socket ~cache_dir ~log () in
  let reqs = ref [] in
  let note_req j = reqs := num "req" j :: !reqs in

  (* cold, then warm: the second response is a byte-identical hit *)
  let _, cold = call ~socket (Serve.request_json ~id:"c" deck) in
  note_req cold;
  check "cold submit ok" (str "outcome" cold = Some "ok");
  check "cold submit is a miss" (not (flag "cache_hit" cold));
  check "cold submit carries provenance"
    (match str "provenance" cold with
     | Some p -> String.length p > 0
     | None -> false);
  let _, warm = call ~socket (Serve.request_json ~id:"w" deck) in
  note_req warm;
  check "warm submit ok" (str "outcome" warm = Some "ok");
  check "warm submit is a cache hit" (flag "cache_hit" warm);
  check "warm output byte-identical"
    (str "output" cold <> None && str "output" cold = str "output" warm);
  check "request ids echoed"
    (str "id" cold = Some "c" && str "id" warm = Some "w");

  (* phase events stream when asked for *)
  let events = ref 0 in
  let _, ev_resp =
    call ~socket
      ~on_event:(fun _ -> incr events)
      (Serve.request_json ~id:"e" ~events:true
         (deck ^ "* force a distinct fingerprint\nC9 out 0 1p\n"))
  in
  note_req ev_resp;
  check "events submit ok" (str "outcome" ev_resp = Some "ok");
  check "phase events streamed" (!events > 0);

  (* stats: live counters as well-formed JSON *)
  let _, stats = call ~socket Serve.stats_request in
  note_req stats;
  check "stats op answers" (str "outcome" stats = Some "stats");
  check "stats reports uptime"
    (match num "uptime_s" stats with Some v -> v >= 0.0 | None -> false);
  check "stats counts request outcomes"
    (match Obs_json.member "requests" stats with
     | Some r -> (match num "ok" r with Some v -> v >= 3.0 | None -> false)
     | None -> false);
  check "stats reports latency quantiles"
    (match Obs_json.member "latency_s" stats with
     | Some q -> (match num "p50" q with Some v -> v >= 0.0 | None -> false)
     | None -> false);
  check "stats reports lane occupancy"
    (num "lanes" stats = Some 2.0 && num "lanes_busy" stats <> None
     && num "queue_depth" stats <> None);
  let counters =
    match Obs_json.member "metrics" stats with
    | Some m -> Obs_json.member "counters" m
    | None -> None
  in
  let counter name =
    match counters with
    | Some c -> (
      match Obs_json.member name c with
      | Some (Obs_json.Num v) -> int_of_float v
      | _ -> 0)
    | None -> 0
  in
  check "stats counts the jobs" (counter "serve.jobs" >= 3);
  check "stats reports the cache hit" (counter "cache.result.hits" >= 1);
  check "stats reports the disk tier"
    (flag "disk" (Option.value (Obs_json.member "cache" stats)
                    ~default:Obs_json.Null));

  (* structured failures, not connection drops *)
  let _, bad_deck =
    call ~socket (Serve.request_json ~id:"x" "not a netlist\nR1 oops\n.end\n")
  in
  note_req bad_deck;
  check "malformed deck fails typed"
    (match str "outcome" bad_deck with
     | Some o -> String.length o > 7 && String.sub o 0 7 = "failed:"
     | None -> false);
  let _, bad_line = call ~socket "this is not json" in
  note_req bad_line;
  check "malformed request line fails typed"
    (match str "outcome" bad_line with
     | Some o -> String.length o > 7 && String.sub o 0 7 = "failed:"
     | None -> false);

  (* metrics: a Prometheus page whose request-latency _count equals the
     number of run requests served (cold, warm, events, bad deck — the
     unparsable request line never became a run request) *)
  let _, met = call ~socket Serve.metrics_request in
  note_req met;
  check "metrics op answers" (str "outcome" met = Some "metrics");
  let page = Option.value (str "text" met) ~default:"" in
  let plines = String.split_on_char '\n' page in
  let has l = List.mem l plines in
  check "request latency _count equals run requests served"
    (has "varsim_serve_request_seconds_count 4");
  check "+Inf bucket matches _count"
    (has "varsim_serve_request_seconds_bucket{le=\"+Inf\"} 4");
  check "outcome counters exported"
    (has "varsim_serve_requests_ok_total 3"
     && has "varsim_serve_requests_failed_total 1");
  check "queue-wait histogram exported"
    (has "varsim_serve_queue_seconds_count 4");

  (* every response carried a fresh monotonic request id *)
  check "request ids monotonic across responses"
    (let rec mono = function
       | Some a :: (Some b :: _ as rest) -> a < b && mono rest
       | Some _ :: [] -> true
       | _ -> false
     in
     mono (List.rev !reqs));

  (* SIGTERM drains cleanly *)
  check "SIGTERM exits 0" (stop_daemon pid = Unix.WEXITED 0);
  check "socket unlinked on drain" (not (Sys.file_exists socket));

  (* the event log holds one record per finished run request *)
  let log_records () =
    match In_channel.with_open_bin event_log In_channel.input_all with
    | s ->
      String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")
    | exception Sys_error _ -> []
  in
  let recs = log_records () in
  check "event log has one record per run request" (List.length recs = 4);
  check "event log records carry the documented fields"
    (List.for_all
       (fun l ->
         match Obs_json.parse l with
         | j ->
           num "ts" j <> None && num "req" j <> None
           && str "outcome" j <> None
         | exception Obs_json.Parse_error _ -> false)
       recs);
  check "event log ids cover the submitted requests"
    (let ids =
       List.filter_map
         (fun l ->
           match Obs_json.parse l with
           | j -> str "id" j
           | exception Obs_json.Parse_error _ -> None)
         recs
     in
     List.for_all (fun i -> List.mem i ids) [ "c"; "w"; "e"; "x" ]);

  (* restart with the same cache directory: the durable tier serves.
     The restarted daemon runs with an injected serve.log.write fault:
     the request must succeed anyway, the loss must be counted, and the
     event log must only be missing the one faulted record. *)
  let pid2 =
    start_daemon ~faults:"serve.log.write:0:exn" ~event_log ~socket ~cache_dir
      ~log ()
  in
  let _, replay = call ~socket (Serve.request_json ~id:"r" deck) in
  check "restarted daemon serves from the durable tier"
    (flag "cache_hit" replay);
  check "replayed bytes identical across restarts"
    (str "output" replay = str "output" cold);
  check "log fault does not fail the request" (str "outcome" replay = Some "ok");
  let _, met2 = call ~socket Serve.metrics_request in
  let page2 = Option.value (str "text" met2) ~default:"" in
  check "log fault counted"
    (List.mem "varsim_serve_log_errors_total 1"
       (String.split_on_char '\n' page2));
  check "restarted daemon drains" (stop_daemon pid2 = Unix.WEXITED 0);
  check "faulted append lost the record, nothing else"
    (List.length (log_records ()) = 4);

  (* one deck, one fingerprint: a `varsim submit` of a deck file and a
     raw protocol request carrying only the same deck text must key the
     same cache entry *)
  let cache3 = Filename.concat dir "cache3" in
  let events3 = Filename.concat dir "events3.jsonl" in
  let pid3 =
    start_daemon ~event_log:events3 ~socket ~cache_dir:cache3 ~log ()
  in
  let deck_path = Filename.concat dir "divider.sp" in
  Out_channel.with_open_bin deck_path (fun oc ->
      Out_channel.output_string oc deck);
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let sub =
    Unix.create_process varsim
      [| varsim; "submit"; deck_path; "--socket"; socket; "--id"; "s" |]
      devnull devnull devnull
  in
  Unix.close devnull;
  let _, sub_status = Unix.waitpid [] sub in
  check "varsim submit exits 0" (sub_status = Unix.WEXITED 0);
  let json_string t =
    let b = Buffer.create (String.length t + 2) in
    Buffer.add_char b '"';
    String.iter
      (function
        | '\n' -> Buffer.add_string b "\\n"
        | ('"' | '\\') as c -> Buffer.add_char b '\\'; Buffer.add_char b c
        | c -> Buffer.add_char b c)
      t;
    Buffer.add_char b '"';
    Buffer.contents b
  in
  let _, raw =
    call ~socket (Printf.sprintf "{\"op\":\"run\",\"deck\":%s}" (json_string deck))
  in
  check "raw request after submit is a cache hit" (flag "cache_hit" raw);
  (* unknown request fields are ignored: a "domains" count changes nothing *)
  let _, with_domains =
    call ~socket
      (Printf.sprintf "{\"op\":\"run\",\"deck\":%s,\"domains\":4}"
         (json_string deck))
  in
  check "a \"domains\" field is ignored"
    (str "outcome" with_domains = Some "ok"
     && str "fingerprint" with_domains <> None
     && str "fingerprint" with_domains = str "fingerprint" raw);
  check "daemon drains" (stop_daemon pid3 = Unix.WEXITED 0);
  let submit_fp =
    In_channel.with_open_bin events3 In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun l ->
           match Obs_json.parse l with
           | j when str "id" j = Some "s" -> str "fingerprint" j
           | _ | (exception Obs_json.Parse_error _) -> None)
  in
  check "submit and raw request share the fingerprint"
    (submit_fp <> None && submit_fp = str "fingerprint" raw);

  if !failures > 0 then begin
    Printf.printf "%d serve check(s) failed; daemon log:\n%!" !failures;
    (try print_string (In_channel.with_open_bin log In_channel.input_all)
     with Sys_error _ -> ());
    exit 1
  end;
  print_endline "serve checks passed"
