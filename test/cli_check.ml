(* End-to-end checks against the real varsim binary (argv.(1)) — the
   process-level robustness contracts that in-process tests cannot
   exercise (docs/robustness.md):

   - budget expiry exits 124 *after* flushing the requested telemetry
     artifacts, on ordinary subcommands and on sweeps alike;
   - a sweep under process isolation survives injected worker crashes
     and hangs with the documented exit codes;
   - kill -9 of the sweep supervisor mid-run, then --resume, converges
     to artifacts byte-identical to an uninterrupted run's;
   - an unknown VARSIM_FAULTS site name, or an unknown option, fails
     fast with exit 2.

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

(* run the binary, capture status + stdout; stderr goes to our own
   (visible in the dune log on failure) *)
let run ?(faults = "") args =
  let out = Filename.temp_file "varsim_cli" ".out" in
  let env =
    Array.append (Unix.environment ())
      (if faults = "" then [||] else [| "VARSIM_FAULTS=" ^ faults |])
  in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process_env varsim
      (Array.of_list (varsim :: args))
      env Unix.stdin fd Unix.stderr
  in
  Unix.close fd;
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

let () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "varsim_cli_%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o755;
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
        "--point-budget"; "0.3"; "--grace"; "0.2"; "--max-retries"; "0" ]
  in
  check "hung worker exits 3" (code = 3);
  check "timed_out outcome recorded"
    (contains (read_file "hg.csv") "timed_out");

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
