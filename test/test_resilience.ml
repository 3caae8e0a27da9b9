(* The resilient analysis runtime: cooperative budgets, the fault
   injection harness, the fallback ladders, and the typed outcome
   wrapper (docs/robustness.md).

   The central guarantee exercised here — deterministically and as a
   QCheck property over random fault schedules — is that any injected
   fault either recovers *bit-identically* to the fault-free run
   (transient faults are absorbed by deterministic re-runs) or surfaces
   as a typed failure through [Resilient.run]: never a bare exception,
   never a hang. *)

let check_exact msg a b = Alcotest.(check (float 0.0)) msg a b

let trigger site visit fault = { Faultsim.site; visit; fault }

(* every test disarms on the way out so a failure cannot poison the
   rest of the suite (the harness is global state by design) *)
let with_faults triggers f =
  Faultsim.arm triggers;
  Fun.protect ~finally:Faultsim.disarm f

(* --------------------------------------------------------- fixtures *)

let divider () =
  let b = Builder.create () in
  Builder.vdc b "V1" "in" "0" 3.0;
  Builder.resistor b "R1" "in" "mid" 2e3;
  Builder.resistor b "R2" "mid" "0" 1e3;
  Builder.finish b

let driven_rc () =
  let b = Builder.create () in
  Builder.vsource b "VIN" "in" "0"
    (Wave.Sin { Wave.offset = 0.5; ampl = 0.2; freq = 1e6; phase_deg = 0.0 });
  Builder.resistor b "R1" "in" "out" 1e3;
  Builder.capacitor b "C1" "out" "0" 159.155e-12;
  Builder.finish b

let switched_inverter () =
  let b = Builder.create () in
  Builder.vdc b "VDD" "vdd" "0" 1.2;
  Builder.vsource b "VIN" "in" "0"
    (Wave.square ~v1:0.0 ~v2:1.2 ~period:4e-9 ~transition:100e-12 ());
  Gates.inverter b "inv" ~input:"in" ~output:"out" ~vdd:"vdd";
  Gates.inverter b "inv2" ~input:"out" ~output:"out2" ~vdd:"vdd";
  Builder.finish b

(* ---------------------------------------------------------- budgets *)

let test_budget_iteration_limit () =
  let b = Budget.make ~max_iterations:5 ~label:"iters" () in
  for _ = 1 to 5 do
    Budget.tick b
  done;
  Alcotest.(check bool) "within limit" false (Budget.expired b);
  (match Budget.tick b with
  | () -> Alcotest.fail "expected Timed_out on tick 6"
  | exception Budget.Timed_out info ->
    Alcotest.(check string) "label" "iters" info.Budget.label;
    Alcotest.(check int) "iterations" 6 info.Budget.iterations;
    Alcotest.(check (option int)) "limit" (Some 5) info.Budget.max_iterations);
  (* expiry latches as cancellation so sibling lanes stop too *)
  Alcotest.(check bool) "latched" true (Budget.cancelled b)

let test_budget_cancel_propagates () =
  let b = Budget.make ~label:"cancel" () in
  Alcotest.(check bool) "no limits, not expired" false (Budget.expired b);
  Budget.cancel b;
  Alcotest.(check bool) "cancelled = expired" true (Budget.expired b);
  (* the pool-lane polling form *)
  match Budget.stop_opt (Some b) with
  | Some stop -> Alcotest.(check bool) "stop_opt sees it" true (stop ())
  | None -> Alcotest.fail "stop_opt lost the budget"

let test_wall_budget_structured_timeout () =
  (* an impossible transient (10^7 base steps) under a 50 ms wall
     budget must come back as a typed Timed_out, promptly — the
     acceptance bound is 2x the budget; we allow generous CI slack but
     stay far below the seconds the full run would need *)
  let c = driven_rc () in
  let bud = Budget.make ~wall_s:0.05 ~label:"tran rc" () in
  let out =
    Resilient.run ~label:"tran" (fun () ->
        Tran.run ~budget:bud ~record:false c ~tstart:0.0 ~tstop:1.0 ~dt:1e-7
          ())
  in
  (match out.Resilient.result with
  | Error (Resilient.Timed_out info) ->
    Alcotest.(check string) "label" "tran rc" info.Budget.label;
    Alcotest.(check (option (float 0.0))) "budget" (Some 0.05)
      info.Budget.budget_s
  | Error f -> Alcotest.fail ("unexpected failure: " ^ Resilient.describe f)
  | Ok _ -> Alcotest.fail "expected a budget timeout");
  Alcotest.(check bool)
    (Printf.sprintf "stopped promptly (%.3f s)" out.Resilient.elapsed_s)
    true
    (out.Resilient.elapsed_s < 2.0)

let test_clock_skip_deterministic_timeout () =
  (* visit 0 of "budget.clock" is the Budget.make read; skipping visit 1
     jumps the first check past the deadline deterministically *)
  with_faults [ trigger "budget.clock" 1 (Faultsim.Clock_skip 3600.0) ]
  @@ fun () ->
  let b = Budget.make ~wall_s:1.0 ~label:"skewed" () in
  match Budget.check b with
  | () -> Alcotest.fail "expected Timed_out after clock skip"
  | exception Budget.Timed_out info ->
    Alcotest.(check bool)
      (Printf.sprintf "elapsed reflects the skew (%.0f s)"
         info.Budget.elapsed_s)
      true
      (info.Budget.elapsed_s >= 3600.0)

let test_budget_stops_passes_within_one_index () =
  let c = switched_inverter () in
  let pss = Pss.solve ~steps:64 c ~period:4e-9 in
  (* visit 0 of "budget.clock" is the Budget.make read and visit k the
     check before step k: skipping visit 5 expires the budget just
     before the fifth step factorization *)
  with_faults [ trigger "budget.clock" 5 (Faultsim.Clock_skip 3600.0) ]
    (fun () ->
      let budget = Budget.make ~wall_s:1.0 ~label:"lptv" () in
      (match Lptv.build ~budget pss ~f_offset:1.0 with
       | _ -> Alcotest.fail "expected Timed_out from the step loop"
       | exception Budget.Timed_out _ -> ());
      Alcotest.(check int) "no step factorized after expiry" 4
        (Faultsim.visits "lptv.factor"));
  (* the budget is cancelled while source 2 is read: source 3 never is *)
  let lptv = Lptv.build pss ~f_offset:1.0 in
  let budget = Budget.make ~label:"pnoise" () in
  let last = ref (-1) in
  let sources =
    Array.mapi
      (fun i (src : Pnoise.source) ->
        { src with
          Pnoise.src_inject =
            (fun k ->
              last := i;
              if i = 2 then Budget.cancel budget;
              src.Pnoise.src_inject k) })
      (Pnoise.mismatch_sources lptv)
  in
  Alcotest.(check bool) "more than three sources" true
    (Array.length sources > 3);
  (match Pnoise.analyze ~budget lptv ~output:"out2" ~harmonic:0 ~sources with
   | _ -> Alcotest.fail "expected Timed_out from the source loop"
   | exception Budget.Timed_out _ -> ());
  Alcotest.(check int) "no source read after expiry" 2 !last

(* --------------------------------------- transient-fault bit-identity *)

let test_dc_transient_faults_bit_identical () =
  let c = divider () in
  let x_ref = Dc.solve c in
  let same msg x = check_exact msg 0.0 (Vec.dist_inf x_ref x) in
  (* a singular factorization on the very first Newton step: absorbed
     by the bounded deterministic re-run inside the solver *)
  with_faults [ trigger "newton.factorize" 0 (Faultsim.Singular 0) ] (fun () ->
      same "singular factorization recovered bit-identically" (Dc.solve c));
  (* a NaN-poisoned residual, same story *)
  with_faults [ trigger "newton.residual" 0 Faultsim.Nan ] (fun () ->
      same "nan residual recovered bit-identically" (Dc.solve c))

let test_tran_step_fault_bit_identical () =
  let c = driven_rc () in
  let run () = Tran.run c ~tstart:0.0 ~tstop:2e-7 ~dt:2e-9 () in
  let w_ref = run () in
  let v_ref = Waveform.signal w_ref "out" in
  with_faults [ trigger "tran.step" 0 (Faultsim.Exn "lane died") ] @@ fun () ->
  let w = run () in
  let v = Waveform.signal w "out" in
  Alcotest.(check int) "same length" (Array.length v_ref) (Array.length v);
  Array.iteri
    (fun i r -> check_exact (Printf.sprintf "sample %d" i) r v.(i))
    v_ref

let test_lane_faults_bit_identical () =
  (* an exception killing the LPTV step-factorization loop and the
     PNOISE source loop mid-run: the loop-level transient retry must
     reproduce the fault-free mismatch PSD bit-for-bit *)
  let c = switched_inverter () in
  let pss = Pss.solve ~steps:64 c ~period:4e-9 in
  let psd () =
    let lptv = Lptv.build pss ~f_offset:1.0 in
    let sources = Pnoise.mismatch_sources lptv in
    let sb = Pnoise.analyze lptv ~output:"out2" ~harmonic:0 ~sources in
    sb.Pnoise.total_psd
  in
  let psd_ref = psd () in
  Alcotest.(check bool) "reference PSD positive" true (psd_ref > 0.0);
  let n_sources =
    Array.length (Pnoise.mismatch_sources (Lptv.build pss ~f_offset:1.0))
  in
  (* the fault kills index 3 (5): the loop re-runs from index 0 *)
  with_faults [ trigger "lptv.factor" 3 (Faultsim.Exn "loop died") ] (fun () ->
      check_exact "lptv factor fault recovered" psd_ref (psd ());
      Alcotest.(check int) "step loop re-ran whole" (4 + 64)
        (Faultsim.visits "lptv.factor"));
  with_faults [ trigger "pnoise.transfer" 5 (Faultsim.Exn "loop died") ]
    (fun () ->
      check_exact "pnoise transfer fault recovered" psd_ref (psd ());
      Alcotest.(check int) "source loop re-ran whole" (6 + n_sources)
        (Faultsim.visits "pnoise.transfer"))

(* ------------------------------------------- persistent-fault typing *)

let test_persistent_fault_is_typed () =
  let c = divider () in
  with_faults [ trigger "newton.residual" (-1) Faultsim.Nan ] @@ fun () ->
  let out = Resilient.run ~label:"op" (fun () -> Dc.solve c) in
  match out.Resilient.result with
  | Error (Resilient.Non_convergence { analysis; _ }) ->
    Alcotest.(check string) "analysis name" "op" analysis
  | Error f -> Alcotest.fail ("wrong failure kind: " ^ Resilient.describe f)
  | Ok _ -> Alcotest.fail "persistent nan unexpectedly converged"

let test_persistent_step_fault_is_typed () =
  let c = driven_rc () in
  with_faults [ trigger "tran.step" (-1) (Faultsim.Exn "always dead") ]
  @@ fun () ->
  let out =
    Resilient.run ~label:"tran" (fun () ->
        Tran.run c ~tstart:0.0 ~tstop:1e-7 ~dt:1e-9 ())
  in
  match out.Resilient.result with
  | Error (Resilient.Injected_fault _) -> ()
  | Error f -> Alcotest.fail ("wrong failure kind: " ^ Resilient.describe f)
  | Ok _ -> Alcotest.fail "persistent step fault unexpectedly survived"

let test_strict_fails_where_default_recovers () =
  let c = divider () in
  (* strict: max_retries = 0, so even a transient first-step fault is
     fatal and the ladder is disabled *)
  with_faults [ trigger "newton.factorize" 0 (Faultsim.Singular 0) ] (fun () ->
      match Dc.solve ~policy:Retry.strict c with
      | _ -> Alcotest.fail "strict policy unexpectedly recovered"
      | exception Dc.No_convergence _ -> ());
  (* the default policy absorbs the same schedule *)
  with_faults [ trigger "newton.factorize" 0 (Faultsim.Singular 0) ] (fun () ->
      ignore (Dc.solve c : Vec.t))

(* ------------------------------------------------ backend degradation *)

let test_sparse_degrades_to_dense () =
  let c = divider () in
  let x_dense = Dc.solve ~solver:Linsys.Dense c in
  let before = Linsys.degradation_count () in
  with_faults [ trigger "linsys.splu" (-1) (Faultsim.Singular 0) ] (fun () ->
      let x = Dc.solve ~solver:Linsys.Sparse c in
      Alcotest.(check bool) "degradation counted" true
        (Linsys.degradation_count () > before);
      check_exact "degraded run matches the dense backend" 0.0
        (Vec.dist_inf x_dense x));
  (* strict policy refuses the degradation and fails typed instead *)
  with_faults [ trigger "linsys.splu" (-1) (Faultsim.Singular 0) ] (fun () ->
      let out =
        Resilient.run ~label:"op" (fun () ->
            Dc.solve ~policy:Retry.strict ~solver:Linsys.Sparse c)
      in
      match out.Resilient.result with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "strict policy unexpectedly degraded")

(* --------------------------------------------------- MC partial runs *)

let test_monte_carlo_budget_partial () =
  let c = divider () in
  let row = Circuit.node_row c "mid" in
  let measure c = [| (Dc.solve c).(row) |] in
  let bud = Budget.make ~wall_s:1e-9 ~label:"mc" () in
  let r = Monte_carlo.run ~budget:bud ~n:16 ~circuit:c ~measure () in
  Alcotest.(check bool) "flagged timed_out" true r.Monte_carlo.timed_out;
  Alcotest.(check int) "completed + skipped = n" 16
    (Array.length r.Monte_carlo.values + r.Monte_carlo.failed);
  (* no budget: same call completes fully *)
  let r = Monte_carlo.run ~n:16 ~circuit:c ~measure () in
  Alcotest.(check bool) "no budget: clean" false r.Monte_carlo.timed_out;
  Alcotest.(check int) "no budget: all samples" 16
    (Array.length r.Monte_carlo.values)

(* ---------------------------------------------------- lane accounts *)

(* The lanes below hand off through atomics, so each interleaving is
   forced rather than timed. *)
let await flag =
  while not (Atomic.get flag) do
    Domain.cpu_relax ()
  done

let test_accounts_are_per_domain () =
  let b_started = Atomic.make false and a_noted = Atomic.make false in
  let lane_a =
    Domain.spawn (fun () ->
        Resilient.run ~label:"a" (fun () ->
            await b_started;
            Linsys.note_krylov_fallback ();
            Atomic.set a_noted true))
  in
  let out_b =
    Resilient.run ~label:"b" (fun () ->
        Atomic.set b_started true;
        await a_noted)
  in
  let out_a = Domain.join lane_a in
  Alcotest.(check int) "the noting lane counts its fallback" 1
    out_a.Resilient.krylov_fallbacks;
  Alcotest.(check int) "the other lane counts none" 0
    out_b.Resilient.krylov_fallbacks

let test_job_output_ignores_other_lanes () =
  let deck =
    Spice_elab.load_string
      "lane divider\nV1 in 0 3\nR1 in mid 2k\nR2 mid 0 1k\n.op\n.end\n"
  in
  let job_started = Atomic.make false and noted = Atomic.make false in
  let held = Atomic.make false in
  (* the first analysis span the job opens is a point inside the job,
     after both the job's and the run's counts were sampled: the job
     waits there until the other lane has noted its fallback *)
  Obs.enable ();
  Obs.set_progress
    (Some
       (fun name phase ->
         match phase with
         | `Begin
           when name <> "job.submit"
                && Atomic.compare_and_set job_started false true ->
           await noted;
           Atomic.set held true
         | `Begin | `End _ -> ()));
  let out =
    Fun.protect
      ~finally:(fun () ->
        Obs.set_progress None;
        Obs.disable ();
        Obs.reset ())
      (fun () ->
        let lane =
          Domain.spawn (fun () ->
              await job_started;
              Linsys.note_krylov_fallback ();
              Atomic.set noted true)
        in
        let out = Spice_job.submit (Spice_job.request deck) in
        (* releases the lane should the job never reach a span *)
        Atomic.set job_started true;
        Domain.join lane;
        out)
  in
  Alcotest.(check bool) "the job was held mid-run" true (Atomic.get held);
  Alcotest.(check int) "no fallback billed to the job" 0
    out.Spice_job.krylov_fallbacks;
  let has_summary =
    try
      ignore (Str.search_forward (Str.regexp_string "resilience summary")
                out.Spice_job.output 0 : int);
      true
    with Not_found -> false
  in
  Alcotest.(check bool) "no resilience summary line" false has_summary

let test_sample_lanes_adopt_account () =
  let c = divider () in
  let row = Circuit.node_row c "mid" in
  (* every sample notes one krylov fallback and degrades its sparse
     solves to dense; the job must see all of them at any lane count *)
  let measure c =
    Linsys.note_krylov_fallback ();
    [| (Dc.solve ~solver:Linsys.Sparse c).(row) |]
  in
  let counts domains =
    with_faults [ trigger "linsys.splu" (-1) (Faultsim.Singular 0) ]
      (fun () ->
        let out =
          Resilient.run ~label:"mc" (fun () ->
              Monte_carlo.run ~domains ~n:16 ~circuit:c ~measure ())
        in
        (out.Resilient.krylov_fallbacks, out.Resilient.degradations))
  in
  let k1, d1 = counts 1 in
  Alcotest.(check int) "one krylov fallback per sample" 16 k1;
  Alcotest.(check bool) "the samples degraded" true (d1 >= 16);
  List.iter
    (fun domains ->
      let k, d = counts domains in
      Alcotest.(check int)
        (Printf.sprintf "krylov fallbacks at %d lanes" domains) k1 k;
      Alcotest.(check int)
        (Printf.sprintf "degradations at %d lanes" domains) d1 d)
    [ 2; 4 ]

(* ------------------------------------------------- QCheck: schedules *)

(* Random fault schedules over the transient-analysis sites.  The
   contract under test: [Resilient.run] either returns [Ok] with the
   exact fault-free waveform (bit-identical final sample) or a typed
   [Error] — an escaping exception fails the property, and the wall
   budget bounds any pathological schedule. *)

let schedule_gen =
  let open QCheck.Gen in
  let site_fault =
    oneof
      [
        return ("newton.residual", Faultsim.Nan);
        map (fun k -> ("newton.factorize", Faultsim.Singular k)) (int_bound 2);
        return ("tran.step", Faultsim.Exn "injected");
        map
          (fun s -> ("budget.clock", Faultsim.Clock_skip (float_of_int s)))
          (int_range 100 1000);
      ]
  in
  let trig =
    map2
      (fun (site, fault) visit -> { Faultsim.site; visit; fault })
      site_fault
      (oneof [ return (-1); int_bound 8 ])
  in
  list_size (int_range 1 4) trig

let schedule_print schedule =
  String.concat ","
    (List.map
       (fun { Faultsim.site; visit; fault } ->
         Printf.sprintf "%s:%s:%s" site
           (if visit < 0 then "*" else string_of_int visit)
           (match fault with
           | Faultsim.Singular k -> Printf.sprintf "singular:%d" k
           | Faultsim.Nan -> "nan"
           | Faultsim.Exn m -> "exn:" ^ m
           | Faultsim.Clock_skip s -> Printf.sprintf "clockskip:%g" s))
       schedule)

let prop_fault_schedules_safe =
  let c = driven_rc () in
  let run () =
    Tran.run
      ~budget:(Budget.make ~wall_s:30.0 ~label:"prop" ())
      c ~tstart:0.0 ~tstop:5e-8 ~dt:1e-9 ()
  in
  let final_ref = Waveform.final (run ()) "out" in
  QCheck.Test.make ~count:40
    ~name:"fault schedules: bit-identical Ok or typed failure"
    (QCheck.make ~print:schedule_print schedule_gen)
    (fun schedule ->
      Faultsim.arm schedule;
      let out =
        Fun.protect ~finally:Faultsim.disarm (fun () ->
            Resilient.run ~label:"tran" run)
      in
      match out.Resilient.result with
      | Ok w -> Waveform.final w "out" = final_ref
      | Error
          ( Resilient.Timed_out _ | Resilient.Non_convergence _
          | Resilient.Singular_system _ | Resilient.Step_failed _
          | Resilient.Injected_fault _ | Resilient.Other _ ) -> true)

(* ------------------------------------------------------------ driver *)

let () =
  Alcotest.run "resilience"
    [
      ( "budget",
        [
          Alcotest.test_case "iteration limit" `Quick
            test_budget_iteration_limit;
          Alcotest.test_case "cancellation" `Quick
            test_budget_cancel_propagates;
          Alcotest.test_case "wall timeout is structured and prompt" `Quick
            test_wall_budget_structured_timeout;
          Alcotest.test_case "clock skip times out deterministically" `Quick
            test_clock_skip_deterministic_timeout;
          Alcotest.test_case "expiry stops lptv and pnoise within one index"
            `Quick test_budget_stops_passes_within_one_index;
        ] );
      ( "fault recovery",
        [
          Alcotest.test_case "dc transient faults bit-identical" `Quick
            test_dc_transient_faults_bit_identical;
          Alcotest.test_case "tran step fault bit-identical" `Quick
            test_tran_step_fault_bit_identical;
          Alcotest.test_case "pool-lane faults bit-identical" `Quick
            test_lane_faults_bit_identical;
        ] );
      ( "typed failures",
        [
          Alcotest.test_case "persistent nan is Non_convergence" `Quick
            test_persistent_fault_is_typed;
          Alcotest.test_case "persistent step fault is Injected_fault" `Quick
            test_persistent_step_fault_is_typed;
          Alcotest.test_case "strict fails where default recovers" `Quick
            test_strict_fails_where_default_recovers;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "sparse degrades to dense" `Quick
            test_sparse_degrades_to_dense;
        ] );
      ( "monte carlo",
        [
          Alcotest.test_case "budget yields partial population" `Quick
            test_monte_carlo_budget_partial;
        ] );
      ( "lane accounts",
        [
          Alcotest.test_case "concurrent runs count their own lane" `Quick
            test_accounts_are_per_domain;
          Alcotest.test_case "job output ignores another lane" `Quick
            test_job_output_ignores_other_lanes;
          Alcotest.test_case "sample lanes count toward the job" `Quick
            test_sample_lanes_adopt_account;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_fault_schedules_safe ] );
    ]
