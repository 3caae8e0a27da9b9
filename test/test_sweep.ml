(* The sweep subsystem: spec parsing and grid expansion, the content
   hash that keys the resume journal, the journal's durability
   contract, the retry rule every point's attempts follow, and the
   domain-mode supervisor end to end (docs/robustness.md, "Sweeps and supervision").

   The durability property checked by QCheck below is the journal's
   whole reason to exist: an {e acked} append (the call returned, the
   fsync happened) survives any crash, simulated here as truncating
   the file at an arbitrary byte — reload recovers exactly the acked
   prefix, never a corrupted or phantom entry.  The process-level side
   (kill -9 of the real supervisor, byte-identical resume) lives in
   the [cli_check] driver, which exercises the installed binary. *)

let spec_text =
  "# offset sigma of the mirror vs width and supply\n\
   cell = mirror\n\
   analysis = dcmatch\n\
   sweep w = 1u, 2u\n\
   sweep vdd = 1.1, 1.2\n"

let parse_ok text =
  match Sweep_spec.parse text with
  | Ok s -> s
  | Error e -> Alcotest.failf "spec did not parse: %s" e

(* ----------------------------------------------------------- specs *)

let test_spec_parse () =
  let s = parse_ok spec_text in
  Alcotest.(check int) "axes" 2 (List.length s.Sweep_spec.axes);
  (match s.Sweep_spec.target with
   | Sweep_spec.Cell "mirror" -> ()
   | _ -> Alcotest.fail "target");
  Alcotest.(check string) "default output" Current_mirror.output_node
    s.Sweep_spec.output;
  Alcotest.(check int) "default retries" 2 s.Sweep_spec.max_retries

let expect_error label text =
  match Sweep_spec.parse text with
  | Ok _ -> Alcotest.failf "%s: expected a parse error" label
  | Error _ -> ()

let test_spec_errors () =
  expect_error "no target" "analysis = op\n";
  expect_error "unknown key" "cell = mirror\nfrobnicate = 3\n";
  expect_error "unknown cell" "cell = nonsuch\n";
  expect_error "unknown axis"
    "cell = mirror\nanalysis = op\nsweep w_tail = 1u\n";
  expect_error "mismatch needs period"
    "cell = mirror\nanalysis = mismatch\nsweep w = 1u\n";
  expect_error "freq needs ringosc"
    "cell = mirror\nanalysis = freq\nsweep w = 1u\n";
  expect_error "bad ramp" "cell = mirror\nsweep w = 1u:4u:0\n";
  expect_error "bare word value" "cell = mirror\nsweep w = dense\n";
  (* the linear solver follows the circuit size: a spec that still
     picks one is told which key is unknown *)
  match Sweep_spec.parse "cell = mirror\nbackend = sparse\n" with
  | Ok _ -> Alcotest.fail "backend key accepted"
  | Error e ->
    Alcotest.(check bool) ("error names the key: " ^ e) true
      (Str.string_match (Str.regexp ".*\"backend\"") e 0)

let test_expand_row_major () =
  let s = parse_ok spec_text in
  let pts = Sweep_spec.expand s in
  Alcotest.(check int) "grid size" 4 (Array.length pts);
  (* last axis (vdd) fastest *)
  let assigns i = List.map snd pts.(i).Sweep_spec.assigns in
  Alcotest.(check bool) "point 0" true
    (assigns 0 = [ 1e-6; 1.1 ]);
  Alcotest.(check bool) "point 1" true
    (assigns 1 = [ 1e-6; 1.2 ]);
  Alcotest.(check bool) "point 2" true
    (assigns 2 = [ 2e-6; 1.1 ]);
  Array.iteri (fun i p -> Alcotest.(check int) "id" i p.Sweep_spec.id) pts;
  (* expansion is a pure function of the spec *)
  Alcotest.(check bool) "deterministic" true (Sweep_spec.expand s = pts)

let test_expand_empty () =
  let s = parse_ok "cell = mirror\nanalysis = op\n" in
  let pts = Sweep_spec.expand s in
  Alcotest.(check int) "one nominal point" 1 (Array.length pts);
  Alcotest.(check bool) "no assigns" true (pts.(0).Sweep_spec.assigns = [])

(* every name in a cell's table moves a field of its own: applied to
   the defaults, no setter is a no-op and no two setters agree *)
let distinct_setters cell defaults table =
  let moved = List.map (fun (name, set) -> (name, set defaults 12345.0)) table in
  List.iteri
    (fun i (a, p) ->
      Alcotest.(check bool) (cell ^ " " ^ a ^ " moves") false (p = defaults);
      List.iteri
        (fun j (b, q) ->
          if j > i then
            Alcotest.(check bool) (Printf.sprintf "%s %s vs %s" cell a b)
              false (p = q))
        moved)
    moved;
  Alcotest.(check (list string)) (cell ^ " names") (List.map fst table)
    (Sweep_spec.cell_param_names cell)

let test_cell_tables () =
  distinct_setters "mirror" Current_mirror.default_params
    Sweep_spec.mirror_params;
  distinct_setters "comparator" Strongarm.default_params
    Sweep_spec.comparator_params;
  distinct_setters "ringosc" Ring_osc.default_params Sweep_spec.ringosc_params

(* ----------------------------------------------------------- hashes *)

let test_point_hash () =
  let s = parse_ok spec_text in
  let pts = Sweep_spec.expand s in
  let hashes =
    Array.to_list (Array.map (Sweep_spec.point_hash s) pts)
  in
  Alcotest.(check int) "all distinct" 4
    (List.length (List.sort_uniq compare hashes));
  (* engine knobs are part of the identity... *)
  let s' = { s with Sweep_spec.steps = Some 400 } in
  Alcotest.(check bool) "steps changes the hash" false
    (Sweep_spec.point_hash s' pts.(0) = Sweep_spec.point_hash s pts.(0));
  (* ...budgets and retry policy are not: resuming with a different
     budget must still recognize journaled points *)
  let s'' =
    { s with Sweep_spec.point_budget_s = Some 1.0; max_retries = 9;
      retry_backoff_s = 3.0 }
  in
  Alcotest.(check bool) "budget does not change the hash" true
    (Sweep_spec.point_hash s'' pts.(0) = Sweep_spec.point_hash s pts.(0))

(* ---------------------------------------------------------- journal *)

let entry i =
  {
    Sweep_journal.hash = Digest.to_hex (Digest.string (string_of_int i));
    id = i;
    outcome = (if i mod 3 = 0 then "ok" else "crashed:SIGKILL");
    metric = "sigma";
    value = (if i mod 2 = 0 then Some (1.234e-3 *. float_of_int (i + 1))
             else None);
    degraded = i mod 2;
    attempts = 1 + (i mod 3);
    elapsed_s = 0.25 *. float_of_int i;
  }

let entry_eq (a : Sweep_journal.entry) (b : Sweep_journal.entry) =
  a.Sweep_journal.hash = b.Sweep_journal.hash
  && a.Sweep_journal.id = b.Sweep_journal.id
  && a.Sweep_journal.outcome = b.Sweep_journal.outcome
  && a.Sweep_journal.metric = b.Sweep_journal.metric
  && a.Sweep_journal.value = b.Sweep_journal.value
  && a.Sweep_journal.degraded = b.Sweep_journal.degraded

let temp_path name =
  Filename.temp_file ("varsim_sweep_" ^ name) ".journal"

let test_journal_roundtrip () =
  (match Sweep_journal.entry_of_json
           (Sweep_journal.entry_to_json (entry 5)) with
   | Some e -> Alcotest.(check bool) "json roundtrip" true (entry_eq e (entry 5))
   | None -> Alcotest.fail "entry_of_json rejected its own encoding");
  let path = temp_path "rt" in
  let j = Sweep_journal.open_append path in
  List.iter (fun i -> Sweep_journal.append j (entry i)) [ 0; 1; 2 ];
  Sweep_journal.close j;
  let back = Sweep_journal.load path in
  Alcotest.(check int) "count" 3 (List.length back);
  List.iteri
    (fun i e -> Alcotest.(check bool) "entry" true (entry_eq e (entry i)))
    back;
  Sys.remove path

let test_journal_truncated_tail () =
  let path = temp_path "tail" in
  let j = Sweep_journal.open_append path in
  List.iter (fun i -> Sweep_journal.append j (entry i)) [ 0; 1 ];
  Sweep_journal.close j;
  (* crash mid-append: a partial third line with no newline *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc (String.sub (Sweep_journal.entry_to_json (entry 2)) 0 17);
  close_out oc;
  Alcotest.(check int) "partial tail dropped" 2
    (List.length (Sweep_journal.load path));
  Sys.remove path

let test_journal_torn_middle () =
  let path = temp_path "torn" in
  let j = Sweep_journal.open_append path in
  List.iter (fun i -> Sweep_journal.append j (entry i)) [ 0; 1; 2 ];
  Sweep_journal.close j;
  let lines =
    String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all)
  in
  let oc = open_out_bin path in
  output_string oc (List.nth lines 0);
  output_string oc "\n{\"hash\":42garbage\n";
  output_string oc (List.nth lines 2);
  output_string oc "\n";
  close_out oc;
  (* a torn line in the middle ends trust there: the good prefix only *)
  Alcotest.(check int) "stops at last good prefix" 1
    (List.length (Sweep_journal.load path));
  Sys.remove path

(* crash = truncate at an arbitrary byte: reload recovers exactly the
   entries whose full line (newline included) survived — acked points
   are never lost, phantom points never appear *)
let journal_crash_property =
  QCheck.Test.make ~count:60 ~name:"journal truncation keeps the acked prefix"
    QCheck.(pair (int_range 1 8) (int_bound 1000))
    (fun (n, cut_seed) ->
      let path = temp_path "qc" in
      Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
      @@ fun () ->
      let j = Sweep_journal.open_append path in
      for i = 0 to n - 1 do
        Sweep_journal.append j (entry i)
      done;
      Sweep_journal.close j;
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      let cut = cut_seed mod (String.length bytes + 1) in
      let oc = open_out_bin path in
      output_string oc (String.sub bytes 0 cut);
      close_out oc;
      (* how many whole lines fit in [cut] bytes? *)
      let expected =
        let rec go i off =
          if i >= n then i
          else
            let len =
              String.length (Sweep_journal.entry_to_json (entry i)) + 1
            in
            if off + len <= cut then go (i + 1) (off + len) else i
        in
        go 0 0
      in
      let back = Sweep_journal.load path in
      List.length back = expected
      && List.for_all2 entry_eq back
           (List.init expected entry))

(* ------------------------------------------------------- retry rule *)

let test_backoff_delay () =
  let d k = Retry.backoff_delay ~base:0.1 ~attempt:k in
  Alcotest.(check (float 1e-12)) "attempt 1" 0.1 (d 1);
  Alcotest.(check (float 1e-12)) "attempt 2" 0.2 (d 2);
  Alcotest.(check (float 1e-12)) "attempt 3" 0.4 (d 3);
  Alcotest.(check bool) "pure" true (d 4 = d 4);
  match Retry.backoff_delay ~base:0.1 ~attempt:0 with
  | _ -> Alcotest.fail "attempt 0 should be rejected"
  | exception Invalid_argument _ -> ()

(* drive the supervisor's real attempt loop with scripted verdicts:
   each attempt takes the next verdict, and the backoff delays are
   recorded instead of slept *)
let run_script ?(expired = fun _ -> false) ~max_retries verdicts =
  let script = ref verdicts and calls = ref 0 and delays = ref [] in
  let v =
    Sweep_supervisor.retry_loop ~max_retries ~backoff_s:0.1
      ~expired:(fun () -> expired !calls)
      ~before_retry:(fun _ d -> delays := d :: !delays)
      (fun () ->
        incr calls;
        match !script with
        | v :: rest ->
          script := rest;
          v
        | [] -> Alcotest.fail "attempted past the script")
  in
  (v, !calls, List.rev !delays)

let verdict outcome =
  let e = { (entry 0) with Sweep_journal.outcome } in
  if outcome = "crashed:SIGKILL" || outcome = "timed_out" then
    Sweep_supervisor.Transient e
  else Sweep_supervisor.Final e

let settled = function
  | Sweep_supervisor.Final e | Sweep_supervisor.Transient e ->
    (e.Sweep_journal.outcome, e.Sweep_journal.attempts)
  | Sweep_supervisor.Aborted -> ("aborted", 0)

let check_settled label (outcome, attempts) v =
  Alcotest.(check (pair string int)) label (outcome, attempts) (settled v)

let test_attempt_plan () =
  let crash = verdict "crashed:SIGKILL" in
  let v, calls, delays = run_script ~max_retries:2 [ crash; crash; crash ] in
  Alcotest.(check int) "attempts" 3 calls;
  check_settled "a persistent crash is recorded after the last retry"
    ("crashed:SIGKILL", 3) v;
  Alcotest.(check bool) "delays follow the geometric backoff" true
    (delays
     = [ Retry.backoff_delay ~base:0.1 ~attempt:1;
         Retry.backoff_delay ~base:0.1 ~attempt:2 ]);
  (* same policy + same verdicts => the identical timeline *)
  Alcotest.(check bool) "deterministic" true
    ((v, calls, delays) = run_script ~max_retries:2 [ crash; crash; crash ]);
  let hang = verdict "timed_out" in
  let v, calls, _ = run_script ~max_retries:2 [ hang; hang; verdict "ok" ] in
  Alcotest.(check int) "a hang is retried like a crash" 3 calls;
  check_settled "the retry that succeeds is recorded" ("ok", 3) v;
  let v, calls, _ = run_script ~max_retries:5 [ crash; verdict "ok" ] in
  Alcotest.(check int) "stops when the verdict is terminal" 2 calls;
  check_settled "one retry consumed" ("ok", 2) v

let test_typed_failure_stops () =
  let v, calls, delays =
    run_script ~max_retries:5 [ verdict "failed:singular matrix at row 3" ]
  in
  Alcotest.(check int) "one attempt" 1 calls;
  Alcotest.(check int) "no backoff" 0 (List.length delays);
  check_settled "recorded as is" ("failed:singular matrix at row 3", 1) v

let test_no_retry_after_budget () =
  let crash = verdict "crashed:SIGKILL" in
  let v, calls, delays =
    run_script ~expired:(fun _ -> true) ~max_retries:5 [ crash ]
  in
  Alcotest.(check int) "no retry once expired" 1 calls;
  Alcotest.(check int) "no backoff" 0 (List.length delays);
  check_settled "the point is aborted, not recorded" ("aborted", 0) v;
  (* expiry between attempts stops the loop at the next verdict *)
  let v, calls, delays =
    run_script ~expired:(fun calls -> calls >= 2) ~max_retries:5
      [ crash; crash; crash ]
  in
  Alcotest.(check int) "expiry after the first retry" 2 calls;
  Alcotest.(check int) "one backoff" 1 (List.length delays);
  check_settled "aborted" ("aborted", 0) v;
  (* a point that used every attempt it had is recorded, budget or not *)
  let v, _, _ = run_script ~expired:(fun _ -> true) ~max_retries:0 [ crash ] in
  check_settled "retries exhausted" ("crashed:SIGKILL", 1) v;
  (* a terminal verdict is recorded even after expiry *)
  let v, _, _ =
    run_script ~expired:(fun _ -> true) ~max_retries:5 [ verdict "ok" ]
  in
  check_settled "a reading is kept" ("ok", 1) v

(* ------------------------------------------------------ run_point *)

let test_run_point_mirror () =
  let s = parse_ok spec_text in
  let pts = Sweep_spec.expand s in
  let hash = Sweep_spec.point_hash s pts.(0) in
  let e = Sweep_worker.run_point ~hash s pts.(0) in
  Alcotest.(check string) "outcome" "ok" e.Sweep_journal.outcome;
  Alcotest.(check string) "hash" hash e.Sweep_journal.hash;
  Alcotest.(check string) "metric" "sigma" e.Sweep_journal.metric;
  (match e.Sweep_journal.value with
   | Some v -> Alcotest.(check bool) "sigma > 0" true (v > 0.0)
   | None -> Alcotest.fail "no value")

(* ------------------------------------------- supervisor, in-process *)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "varsim_sweep_%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  f dir

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_supervisor_domains () =
  with_temp_dir @@ fun dir ->
  let spec_path = Filename.concat dir "mirror.spec" in
  Out_channel.with_open_bin spec_path (fun oc ->
      Out_channel.output_string oc spec_text);
  let spec = parse_ok spec_text in
  let conf resume =
    {
      Sweep_supervisor.spec_path;
      out_prefix = Filename.concat dir "out";
      isolation = Sweep_supervisor.Domains;
      jobs = 2;
      resume;
      budget = None;
      progress = false;
    }
  in
  let sum =
    match Sweep_supervisor.run (conf false) spec with
    | Ok s -> s
    | Error e -> Alcotest.failf "sweep failed: %s" e
  in
  Alcotest.(check int) "total" 4 sum.Sweep_supervisor.total;
  Alcotest.(check int) "ok" 4 sum.Sweep_supervisor.ok;
  Alcotest.(check bool) "not partial" false sum.Sweep_supervisor.partial;
  let csv = read_file (Sweep_supervisor.csv_path (Filename.concat dir "out")) in
  Alcotest.(check int) "csv rows" 5
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)));
  (* resume skips every journaled point and reproduces the artifact *)
  let sum2 =
    match Sweep_supervisor.run (conf true) spec with
    | Ok s -> s
    | Error e -> Alcotest.failf "resume failed: %s" e
  in
  Alcotest.(check int) "all skipped" 4 sum2.Sweep_supervisor.skipped;
  let csv2 =
    read_file (Sweep_supervisor.csv_path (Filename.concat dir "out"))
  in
  Alcotest.(check string) "csv byte-identical" csv csv2

(* ------------------------------------------- content hashing (phv2) *)

let test_point_hash_deck_content () =
  with_temp_dir @@ fun dir ->
  let write name text =
    let path = Filename.concat dir name in
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
    path
  in
  let divider r2 =
    Printf.sprintf
      "divider\nV1 in 0 2.0\nR1 in out 10k tol=0.01\nR2 out 0 %s tol=0.01\n\
       .op\n.end\n"
      r2
  in
  let spec_for path =
    parse_ok (Printf.sprintf "deck = %s\nanalysis = op\noutput = out\n" path)
  in
  let hash path =
    let s = spec_for path in
    Sweep_spec.point_hash s (Sweep_spec.expand s).(0)
  in
  let d1 = write "d1.sp" (divider "10k") in
  let d2 = write "d2.sp" (divider "10k") in
  let d3 = write "d3.sp" (divider "20k") in
  Alcotest.(check string)
    "identical deck content hashes identically regardless of path"
    (hash d1) (hash d2);
  Alcotest.(check bool) "changed deck content changes the hash" false
    (String.equal (hash d1) (hash d3))

(* -------------------------------------- warm plan cache, domain mode *)

(* Points sharing an elaborated circuit (a steps axis leaves the
   matrices untouched) reuse the process-global symbolic plan cache
   when they share a process — the domain-isolation payoff
   (docs/serving.md).  symbolic.plan counts actual symbolic
   factorization work, so a warm cache shows fewer increments than
   points, and the readings stay bit-identical.  The target is a
   resistor ladder above [Linsys.auto_threshold], so the size rule puts
   it on the sparse path that plans. *)
let ladder_deck n =
  let b = Buffer.create 4096 in
  Buffer.add_string b "resistor ladder\nV1 n0 0 1.0\n";
  for k = 1 to n do
    Printf.bprintf b "R%d n%d n%d 1k tol=0.01\n" k (k - 1) k;
    Printf.bprintf b "RG%d n%d 0 10k tol=0.01\n" k k
  done;
  Buffer.add_string b ".end\n";
  Buffer.contents b

let test_warm_plan_cache_across_points () =
  Obs.enable ();
  Fun.protect ~finally:(fun () -> Obs.disable ()) @@ fun () ->
  let path = Filename.temp_file "varsim_ladder" ".sp" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (ladder_deck 70));
  let s =
    parse_ok
      (Printf.sprintf
         "deck = %s\nanalysis = dcmatch\noutput = n35\n\
          sweep steps = 100, 200, 300, 400\n"
         path)
  in
  let pts = Sweep_spec.expand s in
  Alcotest.(check int) "grid" 4 (Array.length pts);
  let value p =
    match
      (Sweep_worker.run_point ~hash:(Sweep_spec.point_hash s p) s p)
        .Sweep_journal.value
    with
    | Some v -> v
    | None -> Alcotest.fail "point failed"
  in
  let v0 = value pts.(0) in
  let plans_after_first = Obs.counter_value "symbolic.plan" in
  Alcotest.(check bool) "the cold point plans" true (plans_after_first > 0);
  let rest = List.map value [ pts.(1); pts.(2); pts.(3) ] in
  Alcotest.(check int) "warm points re-plan nothing" plans_after_first
    (Obs.counter_value "symbolic.plan");
  List.iter
    (fun v ->
      Alcotest.(check int64) "warm plans do not change the reading"
        (Int64.bits_of_float v0) (Int64.bits_of_float v))
    rest

(* ------------------------------------------------- telemetry wire *)

let with_obs f =
  Obs.enable ();
  Fun.protect ~finally:(fun () -> Obs.disable ()) f

let test_wire_roundtrip () =
  with_obs (fun () ->
      (* worker side: record a small session and export it *)
      Obs.root "worker" (fun () ->
          Obs.span "tran" (fun () -> ());
          Obs.count "tran.steps" 42;
          Obs.gauge "g.depth" 3.0;
          Obs.observe "point.seconds" 0.25);
      let line = Obs_wire.export_line () in
      Alcotest.(check bool) "telemetry line recognized" true
        (Obs_wire.looks_like line);
      Alcotest.(check bool) "result lines are not" false
        (Obs_wire.looks_like "{\"outcome\":\"ok\",\"value\":1.0}");
      (* supervisor side: fresh state, merge the line in *)
      Obs.enable ();
      Alcotest.(check bool) "ingest succeeds" true
        (Obs_wire.ingest_line ~key:"h1" ~track:"point 0" line);
      Alcotest.(check int) "counters add" 42 (Obs.counter_value "tran.steps");
      Alcotest.(check bool) "gauges land" true
        (List.assoc_opt "g.depth" (Obs.gauges ()) = Some 3.0);
      (match Obs.quantile "point.seconds" 0.5 with
       | Some v ->
         Alcotest.(check bool) "histogram merged losslessly" true
           (v > 0.2 && v < 0.3)
       | None -> Alcotest.fail "histogram not merged");
      (match Obs.remote_spans () with
       | [ t ] ->
         Alcotest.(check string) "remote root" "worker" t.Obs.span_name;
         Alcotest.(check (list string)) "remote children" [ "tran" ]
           (List.map (fun c -> c.Obs.span_name) t.Obs.children)
       | ts -> Alcotest.failf "expected 1 remote tree, got %d" (List.length ts));
      (* a retry of the same point (same content hash) must land on the
         same trace track *)
      let tid = Obs.extern_track ~key:"h1" ~name:"point 0" in
      Alcotest.(check bool) "second ingest (retry) accepted" true
        (Obs_wire.ingest_line ~key:"h1" ~track:"point 0" line);
      Alcotest.(check int) "same key, same track id" tid
        (Obs.extern_track ~key:"h1" ~name:"point 0");
      Alcotest.(check int) "counters add again" 84
        (Obs.counter_value "tran.steps"))

(* the kill -9 contract: a worker dying mid-write tears its telemetry
   line at an arbitrary byte; every such prefix must be dropped whole,
   mutating nothing *)
let test_wire_torn_line () =
  with_obs (fun () ->
      Obs.root "worker" (fun () ->
          Obs.count "c.x" 7;
          Obs.observe "h.y" 1.0);
      let line = Obs_wire.export_line () in
      Obs.enable ();
      for cut = 0 to String.length line - 1 do
        let torn = String.sub line 0 cut in
        if Obs_wire.ingest_line ~key:"k" ~track:"point 9" torn then
          Alcotest.failf "torn prefix of %d bytes was ingested" cut
      done;
      Alcotest.(check int) "no counter leaked" 0 (Obs.counter_value "c.x");
      Alcotest.(check bool) "no histogram leaked" true
        (Obs.quantile "h.y" 0.5 = None);
      Alcotest.(check bool) "no span leaked" true (Obs.remote_spans () = []))

(* all-or-nothing across sections: a line whose counters are fine but
   whose histogram is internally inconsistent must not apply anything *)
let test_wire_inconsistent_histogram () =
  with_obs (fun () ->
      let bad =
        "{\"telemetry\":1,\"epoch\":0,\"counters\":{\"c.z\":5},\"gauges\":{},\
         \"histograms\":{\"h\":{\"count\":5,\"sum\":1.0,\"nonpos\":0,\
         \"buckets\":[[8,2]]}},\"spans\":[],\"events\":[]}"
      in
      Alcotest.(check bool) "rejected" false
        (Obs_wire.ingest_line ~key:"k" ~track:"point 1" bad);
      Alcotest.(check int) "counters untouched" 0 (Obs.counter_value "c.z"))

(* ------------------------------------------------- site validation *)

let test_validate_sites () =
  let t site = { Faultsim.site; visit = 0; fault = Faultsim.Nan } in
  (match Faultsim.validate_sites [ t "sweep.worker.crash"; t "tran.step" ] with
   | Ok () -> ()
   | Error e -> Alcotest.failf "valid sites rejected: %s" e);
  (match Faultsim.validate_sites [ t "sweep.worker.crush" ] with
   | Ok () -> Alcotest.fail "typo accepted"
   | Error e ->
     Alcotest.(check bool) "names the typo" true
       (let re = Str.regexp_string "sweep.worker.crush" in
        (try ignore (Str.search_forward re e 0); true
         with Not_found -> false));
     Alcotest.(check bool) "lists the vocabulary" true
       (let re = Str.regexp_string "tran.step" in
        (try ignore (Str.search_forward re e 0); true
         with Not_found -> false)));
  Alcotest.(check bool) "sweep sites are registered" true
    (List.for_all
       (fun s -> List.mem s (Faultsim.known_sites ()))
       [ "sweep.worker.spawn"; "sweep.worker.crash"; "sweep.worker.hang";
         "sweep.journal.write" ])

let () =
  Alcotest.run "sweep"
    [
      ( "spec",
        [
          Alcotest.test_case "parse" `Quick test_spec_parse;
          Alcotest.test_case "errors" `Quick test_spec_errors;
          Alcotest.test_case "row-major expansion" `Quick
            test_expand_row_major;
          Alcotest.test_case "empty grid" `Quick test_expand_empty;
          Alcotest.test_case "cell tables" `Quick test_cell_tables;
          Alcotest.test_case "point hash" `Quick test_point_hash;
          Alcotest.test_case "deck-content hash" `Quick
            test_point_hash_deck_content;
        ] );
      ( "journal",
        [
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "truncated tail" `Quick
            test_journal_truncated_tail;
          Alcotest.test_case "torn middle" `Quick test_journal_torn_middle;
          QCheck_alcotest.to_alcotest journal_crash_property;
        ] );
      ( "retry",
        [
          Alcotest.test_case "backoff delay" `Quick test_backoff_delay;
          Alcotest.test_case "attempt plan" `Quick test_attempt_plan;
          Alcotest.test_case "typed failure stops the loop" `Quick
            test_typed_failure_stops;
          Alcotest.test_case "no retry after budget expiry" `Quick
            test_no_retry_after_budget;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "run_point mirror" `Quick test_run_point_mirror;
          Alcotest.test_case "domain-mode end to end" `Quick
            test_supervisor_domains;
          Alcotest.test_case "warm plan cache across points" `Quick
            test_warm_plan_cache_across_points;
        ] );
      ( "wire",
        [
          Alcotest.test_case "telemetry roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "torn line dropped whole" `Quick
            test_wire_torn_line;
          Alcotest.test_case "inconsistent histogram rejected" `Quick
            test_wire_inconsistent_histogram;
        ] );
      ( "faultsim",
        [ Alcotest.test_case "site validation" `Quick test_validate_sites ] );
    ]
