(* End-to-end checks against the real varsim binary (argv.(1)) — the
   process-level robustness contracts that in-process tests cannot
   exercise (docs/robustness.md):

   - budget expiry exits 124 *after* flushing the requested telemetry
     artifacts, on ordinary subcommands and on sweeps alike;
   - a sweep under process isolation survives injected worker crashes,
     hangs and spawn faults with the documented exit codes;
   - kill -9 of the sweep supervisor mid-run, or a global budget that
     expires mid-grid, then --resume, converges to artifacts
     byte-identical to an uninterrupted run's;
   - process and domain isolation give byte-identical artifacts, and
     domain lanes never race each other;
   - an unknown VARSIM_FAULTS site name, or an unknown option, fails
     fast with exit 2;
   - a .mc card spreads its samples over --domains lanes with output
     byte-identical to one lane, only run and yield take --domains,
     and a lane count below 1 is a usage error;
   - --progress prints the main domain's phases, never a sample
     lane's.

   Everything runs in a private temp dir with self-written decks and
   specs, so the driver has no data dependencies. *)

(* the driver chdirs into its temp dir, so resolve the binary first *)
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

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* run the binary, capture status + stdout; stderr goes to the file
   [stderr] when given, else to our own (visible in the dune log on
   failure) *)
let run ?(faults = "") ?stderr args =
  let out = Filename.temp_file "varsim_cli" ".out" in
  let env =
    Array.append (Unix.environment ())
      (if faults = "" then [||] else [| "VARSIM_FAULTS=" ^ faults |])
  in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let efd =
    match stderr with
    | Some path ->
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    | None -> Unix.stderr
  in
  let pid =
    Unix.create_process_env varsim
      (Array.of_list (varsim :: args))
      env Unix.stdin fd efd
  in
  Unix.close fd;
  if stderr <> None then Unix.close efd;
  let _, status = Unix.waitpid [] pid in
  let text = read_file out in
  Sys.remove out;
  let code =
    match status with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + s
  in
  (code, text)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

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
      (Printf.sprintf "varsim_cli_%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o755;
  at_exit (fun () -> rm_rf dir);
  Sys.chdir dir;

  write_file "mirror.sp"
    "NMOS current mirror\n\
     VDD vdd 0 1.2\n\
     IREF vdd nref 100u\n\
     M1 nref nref 0 0 nmos013 w=4u l=0.5u\n\
     M2 out nref 0 0 nmos013 w=4u l=0.5u\n\
     RL vdd out 2k\n\
     .op\n\
     .end\n";
  write_file "small.spec"
    "cell = mirror\n\
     analysis = dcmatch\n\
     sweep w = 1u, 2u\n\
     sweep vdd = 1.1, 1.2\n";
  write_file "one.spec"
    "cell = mirror\nanalysis = dcmatch\nsweep w = 1u\n";
  write_file "big.spec"
    "cell = mirror\n\
     analysis = dcmatch\n\
     sweep w = 1u:8u:10\n\
     sweep vdd = 1.0:1.3:4\n";

  (* ------------------------------------------------------------- *)
  (* satellite: budget expiry = 124, artifacts flushed first *)

  write_file "deck_mismatch.sp"
    "mirror for mismatch\n\
     VDD vdd 0 1.2\n\
     IREF vdd nref 100u\n\
     M1 nref nref 0 0 nmos013 w=4u l=0.5u\n\
     M2 out nref 0 0 nmos013 w=4u l=0.5u\n\
     RL vdd out 2k\n\
     .mismatch out pss=4n\n\
     .end\n";
  let code, _ =
    run ~faults:"budget.clock:2:clockskip:1e9"
      [ "run"; "deck_mismatch.sp"; "--budget"; "10"; "--metrics"; "m.json";
        "--trace"; "t.json" ]
  in
  check "budget expiry exits 124" (code = 124);
  check "metrics flushed on expiry"
    (Sys.file_exists "m.json" && String.length (read_file "m.json") > 2);
  check "trace flushed on expiry"
    (Sys.file_exists "t.json" && String.length (read_file "t.json") > 2);

  (* a typed (non-timeout) failure is 123, distinguishable from 124:
     a persistently singular factorization defeats the whole ladder *)
  let code, _ =
    run ~faults:"newton.factorize:*:singular" [ "op"; "mirror.sp" ]
  in
  check "typed failure exits 123" (code = 123);

  (* unknown fault site fails fast *)
  let code, _ =
    run ~faults:"sweep.worker.crush:0:exn" [ "op"; "mirror.sp" ]
  in
  check "unknown VARSIM_FAULTS site exits 2" (code = 2);

  (* a usage error is 2, never 124: a script still passing the retired
     solver-backend flag must not read a budget timeout.  The flag is
     spelled in two pieces so a search for leftover uses of it finds
     none here. *)
  write_file "divider.sp"
    "divider\nV1 in 0 2.0\nR1 in out 10k\nR2 out 0 10k\n.op\n.end\n";
  let retired_flag = "--" ^ "backend" in
  let code, _ = run [ "run"; retired_flag; "dense"; "divider.sp" ] in
  check "unknown option exits 2" (code = 2);

  (* --domains sizes only the sample lanes of run and yield; the verbs
     whose passes always run on one domain reject it *)
  List.iter
    (fun args ->
      let code, _ = run (args @ [ "--domains"; "2" ]) in
      check
        (Printf.sprintf "%s --domains exits 2" (List.hd args))
        (code = 2))
    [ [ "pnoise"; "divider.sp"; "-o"; "out"; "--period"; "1u" ];
      [ "mismatch"; "divider.sp"; "-o"; "out"; "--period"; "1u" ];
      [ "dcmatch"; "divider.sp"; "-o"; "out" ];
      [ "demo"; "comparator" ];
      [ "submit"; "divider.sp" ] ];
  let code, _ = run [ "serve"; "--job-domains"; "2" ] in
  check "serve --job-domains exits 2" (code = 2);

  (* a .mc card runs its samples on --domains lanes: the trace names
     both lane tracks, and the output matches a one-lane run byte for
     byte (enough samples that the second lane is sure to claim some) *)
  write_file "mc.sp"
    "mirror monte carlo
\
     VDD vdd 0 1.2
\
     IREF vdd nref 100u
\
     M1 nref nref 0 0 nmos013 w=4u l=0.5u
\
     M2 out nref 0 0 nmos013 w=4u l=0.5u
\
     RL vdd out 2k
\
     .mc n=2000 seed=7
\
     .end
";
  let code1, out1 = run [ "run"; "mc.sp"; "--domains"; "1" ] in
  let code2, out2 =
    run [ "run"; "mc.sp"; "--domains"; "2"; "--trace"; "mc.trace.json" ]
  in
  check ".mc runs exit 0" (code1 = 0 && code2 = 0);
  check ".mc output byte-identical across --domains" (out1 = out2);
  let trace = read_file "mc.trace.json" in
  (* the 2000-sample trace is most of the temp dir, which is kept *)
  Sys.remove "mc.trace.json";
  check ".mc trace has two lane tracks"
    (contains trace "\"lane 0\"" && contains trace "\"lane 1\"");

  (* --progress reports the top-level phases of the main domain only:
     the .mc card shows, and no sample lane's solve does *)
  let code, _ =
    run ~stderr:"progress.err"
      [ "run"; "mc.sp"; "--domains"; "2"; "--progress" ]
  in
  let progress = read_file "progress.err" in
  check ".mc --progress exits 0" (code = 0);
  check "--progress names the .mc card"
    (contains progress "varsim: spice.monte_carlo ...");
  check "--progress shows no sample lane's solve"
    (not (contains progress "dc.solve"));

  (* a lane count below 1 is a usage error, rejected before any output *)
  List.iter
    (fun args ->
      let code, out = run (args @ [ "--domains"; "0" ]) in
      check
        (Printf.sprintf "%s --domains 0 exits 2 with no output" (List.hd args))
        (code = 2 && out = ""))
    [ [ "run"; "mc.sp" ];
      [ "yield"; "mirror.sp"; "-o"; "out"; "--above"; "0.6" ] ];

  (* ------------------------------------------------------------- *)
  (* sweep smoke: process isolation, then resume reuses the journal *)

  let code, _ =
    run [ "sweep"; "small.spec"; "-o"; "sw"; "--isolation"; "process" ]
  in
  check "sweep (process) exits 0" (code = 0);
  let csv = read_file "sw.csv" in
  check "sweep csv has header + 4 rows"
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' csv))
     = 5);
  check "sweep csv carries the degraded column"
    (contains csv ",outcome,metric,value,degraded");
  let code, out =
    run [ "sweep"; "small.spec"; "-o"; "sw"; "--isolation"; "process";
          "--resume" ]
  in
  check "resume exits 0" (code = 0);
  check "resume reuses every journaled point"
    (contains out "4 journaled point(s) reused");
  check "resume csv byte-identical" (read_file "sw.csv" = csv);

  (* a deck target sweeps too *)
  write_file "deck.spec"
    "deck = mirror.sp\nanalysis = op\noutput = out\nsweep steps = 100, 200\n";
  let code, _ = run [ "sweep"; "deck.spec"; "-o"; "dk" ] in
  check "deck-target sweep exits 0" (code = 0);

  (* ------------------------------------------------------------- *)
  (* injected worker crash: one transient is absorbed by a retry, and
     the artifact is unchanged because attempts are not in the CSV *)

  let code, out =
    run ~faults:"sweep.worker.crash:0:exn"
      [ "sweep"; "small.spec"; "-o"; "cr"; "--isolation"; "process" ]
  in
  check "transient worker crash absorbed" (code = 0);
  check "transient crash consumed one retry" (contains out "1 retry consumed");
  check "crash-run csv identical to clean run" (read_file "cr.csv" = csv);

  (* persistent crash: retries exhaust, outcome recorded, exit 3 *)
  let code, _ =
    run ~faults:"sweep.worker.crash:*:exn"
      [ "sweep"; "one.spec"; "-o"; "cp"; "--isolation"; "process";
        "--max-retries"; "1" ]
  in
  check "persistent crash exits 3" (code = 3);
  check "crashed outcome recorded" (contains (read_file "cp.csv") "crashed:");

  (* hung worker: the per-point deadline reaps it, exit 3, timed_out *)
  let code, _ =
    run ~faults:"sweep.worker.hang:*:exn"
      [ "sweep"; "one.spec"; "-o"; "hg"; "--isolation"; "process";
        "--point-budget"; "0.3"; "--max-retries"; "0" ]
  in
  check "hung worker exits 3" (code = 3);
  check "timed_out outcome recorded"
    (contains (read_file "hg.csv") "timed_out");

  (* spawn fault: costs one attempt like a crash, so one transient is
     absorbed and a persistent one is recorded as a failed point *)
  let code, out =
    run ~faults:"sweep.worker.spawn:0:exn"
      [ "sweep"; "small.spec"; "-o"; "sf"; "--isolation"; "process" ]
  in
  check "transient spawn fault absorbed" (code = 0);
  check "transient spawn fault consumed one retry"
    (contains out "1 retry consumed");
  check "spawn-fault csv identical to clean run" (read_file "sf.csv" = csv);
  let code, _ =
    run ~faults:"sweep.worker.spawn:*:exn"
      [ "sweep"; "one.spec"; "-o"; "sp"; "--isolation"; "process";
        "--max-retries"; "1" ]
  in
  check "persistent spawn fault exits 3" (code = 3);
  check "spawn failure recorded"
    (contains (read_file "sp.csv") "failed:worker spawn failed");

  (* ------------------------------------------------------------- *)
  (* cross-isolation parity: the same grid under process and domain
     isolation gives byte-identical artifacts *)

  write_file "cmp.spec"
    "cell = comparator\n\
     analysis = mismatch\n\
     sweep w_in = 6u, 8u\n\
     sweep vdd = 1.05:1.2:4\n";
  let code, _ =
    run [ "sweep"; "cmp.spec"; "-o"; "iso_p"; "--isolation"; "process";
          "--jobs"; "1" ]
  in
  check "process-isolated grid exits 0" (code = 0);
  let code, _ =
    run [ "sweep"; "cmp.spec"; "-o"; "iso_d"; "--isolation"; "domain";
          "--jobs"; "2" ]
  in
  check "domain-isolated grid exits 0" (code = 0);
  check "cross-isolation csv byte-identical"
    (read_file "iso_p.csv" = read_file "iso_d.csv");
  check "cross-isolation json byte-identical"
    (read_file "iso_p.json" = read_file "iso_d.json");

  (* ------------------------------------------------------------- *)
  (* global budget expiry mid-grid, whatever the host's speed: the
     journal already holds the first 3 points, and the first pending
     point's worker parks (injected hang) until the budget expires.
     In-flight points are killed, not journaled; the resume converges
     to the uninterrupted run *)

  let lines path =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (read_file path))
  in
  write_file "bx.journal"
    (String.concat ""
       (List.map (fun l -> l ^ "\n")
          (List.filteri (fun i _ -> i < 3) (lines "iso_p.journal"))));
  let code, _ =
    run ~faults:"sweep.worker.hang:*:exn"
      [ "sweep"; "cmp.spec"; "-o"; "bx"; "--isolation"; "process";
        "--jobs"; "1"; "--resume"; "--budget"; "1" ]
  in
  check "sweep budget expiry exits 124" (code = 124);
  let partial_csv = lines "bx.csv" in
  check "partial csv ends with the partial marker"
    (match List.rev partial_csv with
     | last :: _ -> String.starts_with ~prefix:"# partial:" last
     | [] -> false);
  let csv_ids =
    List.filter_map
      (fun l -> int_of_string_opt (List.hd (String.split_on_char ',' l)))
      partial_csv
  in
  let journal_ids =
    List.map (fun l -> Scanf.sscanf l "{\"hash\":%S,\"id\":%d" (fun _ id -> id))
      (lines "bx.journal")
  in
  check "budget expired mid-grid" (csv_ids <> [] && List.length csv_ids < 8);
  check "journal holds exactly the recorded points"
    (List.sort compare journal_ids = csv_ids);
  let code, _ =
    run [ "sweep"; "cmp.spec"; "-o"; "bx"; "--isolation"; "process";
          "--jobs"; "1"; "--resume" ]
  in
  check "resume after budget expiry exits 0" (code = 0);
  check "budget-resume csv byte-identical to uninterrupted run"
    (read_file "bx.csv" = read_file "iso_p.csv");
  check "budget-resume json byte-identical to uninterrupted run"
    (read_file "bx.json" = read_file "iso_p.json");

  (* ------------------------------------------------------------- *)
  (* domain lanes compute side by side in one process: repeated fresh
     sweeps must never record a point failed by a race between lanes *)

  write_file "eight.spec"
    "cell = mirror\n\
     analysis = dcmatch\n\
     sweep w = 1u, 2u, 3u, 4u\n\
     sweep vdd = 1.1, 1.2\n";
  let racy = ref 0 in
  for _ = 1 to 20 do
    let code, _ =
      run [ "sweep"; "eight.spec"; "-o"; "dr"; "--isolation"; "domain";
            "--jobs"; "2" ]
    in
    if code <> 0 then incr racy
  done;
  check "20 fresh domain sweeps all exit 0" (!racy = 0);

  (* ------------------------------------------------------------- *)
  (* the tentpole: kill -9 mid-run, resume, byte-identical artifacts *)

  let code, _ =
    run [ "sweep"; "big.spec"; "-o"; "ref"; "--isolation"; "process";
          "--jobs"; "2" ]
  in
  check "reference run exits 0" (code = 0);
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process varsim
      [| varsim; "sweep"; "big.spec"; "-o"; "kr"; "--isolation"; "process";
         "--jobs"; "2" |]
      Unix.stdin null null
  in
  Unix.close null;
  (* wait until a few points are acked, then kill -9 the supervisor *)
  let deadline = Unix.gettimeofday () +. 30.0 in
  let journal_lines () =
    if Sys.file_exists "kr.journal" then
      List.length
        (List.filter (fun l -> l <> "")
           (String.split_on_char '\n' (read_file "kr.journal")))
    else 0
  in
  while journal_lines () < 3 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  let acked = journal_lines () in
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  check "supervisor killed with points acked" (acked >= 3);
  let code, out =
    run [ "sweep"; "big.spec"; "-o"; "kr"; "--isolation"; "process";
          "--jobs"; "2"; "--resume" ]
  in
  check "resume after kill -9 exits 0" (code = 0);
  check "resume reused the acked points"
    (contains out "journaled point(s) reused");
  check "kill-resume csv byte-identical to uninterrupted run"
    (read_file "kr.csv" = read_file "ref.csv");
  check "kill-resume json byte-identical to uninterrupted run"
    (read_file "kr.json" = read_file "ref.json");

  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n%!" !failures;
    exit 1
  end;
  print_endline "all cli checks passed"
