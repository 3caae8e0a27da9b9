(* The sweep subsystem: spec parsing and grid expansion, the content
   hash that keys the resume journal, the journal's durability
   contract, the pure retry planning, and the domain-mode supervisor
   end to end (docs/robustness.md, "Sweeps and supervision").

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

(* ------------------------------------------------- retry planning *)

let test_backoff_delay () =
  let d k = Retry.backoff_delay ~base:0.1 ~attempt:k in
  Alcotest.(check (float 1e-12)) "attempt 1" 0.1 (d 1);
  Alcotest.(check (float 1e-12)) "attempt 2" 0.2 (d 2);
  Alcotest.(check (float 1e-12)) "attempt 3" 0.4 (d 3);
  Alcotest.(check bool) "pure" true (d 4 = d 4);
  match Retry.backoff_delay ~base:0.1 ~attempt:0 with
  | _ -> Alcotest.fail "attempt 0 should be rejected"
  | exception Invalid_argument _ -> ()

let test_plan_attempts () =
  let plan =
    Sweep_supervisor.plan_attempts ~max_retries:2 ~backoff_s:0.1
      ~retriable:(fun _ -> true)
  in
  Alcotest.(check (list int)) "attempts" [ 1; 2; 3 ]
    (List.map (fun e -> e.Sweep_supervisor.attempt) plan);
  Alcotest.(check bool) "delays follow the geometric backoff" true
    (List.map (fun e -> e.Sweep_supervisor.delay_before_s) plan
     = [ 0.0; Retry.backoff_delay ~base:0.1 ~attempt:1;
         Retry.backoff_delay ~base:0.1 ~attempt:2 ]);
  (* same policy + same verdicts => the identical timeline *)
  Alcotest.(check bool) "deterministic" true
    (plan
     = Sweep_supervisor.plan_attempts ~max_retries:2 ~backoff_s:0.1
         ~retriable:(fun _ -> true));
  let first_only =
    Sweep_supervisor.plan_attempts ~max_retries:5 ~backoff_s:0.1
      ~retriable:(fun k -> k = 1)
  in
  Alcotest.(check int) "stops when the verdict is terminal" 2
    (List.length first_only)

(* ------------------------------------------------------ run_point *)

let test_run_point_mirror () =
  let s = parse_ok spec_text in
  let pts = Sweep_spec.expand s in
  let r = Sweep_worker.run_point s pts.(0) in
  (match r.Sweep_worker.outcome with
   | `Ok -> ()
   | _ -> Alcotest.fail "expected `Ok");
  Alcotest.(check string) "metric" "sigma" r.Sweep_worker.metric;
  (match r.Sweep_worker.value with
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
      grace_s = 1.0;
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
    match (Sweep_worker.run_point s p).Sweep_worker.value with
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
          Alcotest.test_case "attempt plan" `Quick test_plan_attempts;
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
