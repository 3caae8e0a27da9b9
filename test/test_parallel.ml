(* Determinism and correctness of the domain-pool parallel paths: the
   pool itself, and the guarantee that every ?domains entry point is
   bit-identical to its single-domain run. *)

let check_exact msg a b = Alcotest.(check (float 0.0)) msg a b

(* ------------------------------------------------------------ the pool *)

let test_pool_parallel_for () =
  Domain_pool.with_pool 4 @@ fun pool ->
  let n = 1000 in
  let out = Array.make n 0 in
  Domain_pool.parallel_for pool n (fun i -> out.(i) <- i * i);
  Array.iteri
    (fun i v -> Alcotest.(check int) (Printf.sprintf "square %d" i) (i * i) v)
    out;
  (* a pool must survive its first job: publish a second one *)
  Domain_pool.parallel_for pool n (fun i -> out.(i) <- i + 1);
  Alcotest.(check int) "second job ran" n out.(n - 1)

let test_pool_parallel_init () =
  Domain_pool.with_pool 3 @@ fun pool ->
  let xs = Domain_pool.parallel_init pool 257 (fun i -> float_of_int i) in
  let sum = Array.fold_left ( +. ) 0.0 in
  check_exact "init sum" (float_of_int (257 * 256 / 2)) (sum xs);
  (* chunked variant covers the same index set exactly once *)
  let ys = Domain_pool.parallel_init pool ~chunk:16 257 (fun i -> float_of_int i) in
  check_exact "chunked init sum" (sum xs) (sum ys)

let test_pool_exception () =
  Domain_pool.with_pool 4 @@ fun pool ->
  (* a body failure must propagate to the caller... *)
  Alcotest.check_raises "body failure propagates" (Failure "boom") (fun () ->
      Domain_pool.parallel_for pool 100 (fun i ->
          if i = 57 then failwith "boom"));
  (* ...and must not wedge the pool for later jobs *)
  let out = Array.make 10 0 in
  Domain_pool.parallel_for pool 10 (fun i -> out.(i) <- i);
  Alcotest.(check int) "pool usable after failure" 9 out.(9)

let test_pool_serial_fallback () =
  (* lanes <= 1 must not spawn domains yet still run every index *)
  Domain_pool.with_pool 1 @@ fun pool ->
  Alcotest.(check int) "no workers" 1 (Domain_pool.size pool);
  let out = Array.make 20 0 in
  Domain_pool.parallel_for pool 20 (fun i -> out.(i) <- i + 1);
  Alcotest.(check int) "serial path ran" 20 out.(19)

(* -------------------------------------------- engine determinism checks *)

let switched_inverter () =
  let b = Builder.create () in
  Builder.vdc b "VDD" "vdd" "0" 1.2;
  Builder.vsource b "VIN" "in" "0"
    (Wave.square ~v1:0.0 ~v2:1.2 ~period:4e-9 ~transition:100e-12 ());
  Gates.inverter b "inv" ~input:"in" ~output:"out" ~vdd:"vdd";
  Gates.inverter b "inv2" ~input:"out" ~output:"out2" ~vdd:"vdd";
  Builder.finish b

let test_lptv_build_domains_identical () =
  let c = switched_inverter () in
  let pss = Pss.solve ~steps:64 c ~period:4e-9 in
  let l1 = Lptv.build ~domains:1 pss ~f_offset:1.0 in
  let l4 = Lptv.build ~domains:4 pss ~f_offset:1.0 in
  (* probe with a unit injection at the output node and compare the full
     per-step solution vectors bit-for-bit *)
  let row = Circuit.node_row c "out2" in
  let inj _k = [ (row, 1.0) ] in
  let p1 = Lptv.solve_source l1 inj in
  let p4 = Lptv.solve_source l4 inj in
  Alcotest.(check int) "same step count" (Array.length p1) (Array.length p4);
  let max_diff = ref 0.0 in
  Array.iteri
    (fun k (v1 : Cvec.t) ->
      for i = 0 to Cvec.dim v1 - 1 do
        let z1 = Cvec.get v1 i and z4 = Cvec.get p4.(k) i in
        max_diff :=
          Float.max !max_diff
            (Float.max
               (Float.abs (z1.Cx.re -. z4.Cx.re))
               (Float.abs (z1.Cx.im -. z4.Cx.im)))
      done)
    p1;
  check_exact "solve_source bit-identical across domain counts" 0.0 !max_diff

let test_pnoise_domains_identical () =
  let c = switched_inverter () in
  let pss = Pss.solve ~steps:64 c ~period:4e-9 in
  let lptv = Lptv.build ~domains:1 pss ~f_offset:1.0 in
  let sources = Pnoise.mismatch_sources lptv in
  Alcotest.(check bool) "have sources" true (Array.length sources > 0);
  let s1 =
    Pnoise.analyze ~domains:1 lptv ~output:"out2" ~harmonic:0 ~sources
  in
  let s4 =
    Pnoise.analyze ~domains:4 lptv ~output:"out2" ~harmonic:0 ~sources
  in
  check_exact "total_psd identical" s1.Pnoise.total_psd s4.Pnoise.total_psd;
  Array.iteri
    (fun i (c1 : Pnoise.contribution) ->
      let c4 = s4.Pnoise.contributions.(i) in
      check_exact "contribution share" c1.Pnoise.share c4.Pnoise.share;
      check_exact "transfer re" c1.Pnoise.transfer.Cx.re c4.Pnoise.transfer.Cx.re;
      check_exact "transfer im" c1.Pnoise.transfer.Cx.im c4.Pnoise.transfer.Cx.im)
    s1.Pnoise.contributions;
  let w1 = Pnoise.sigma_waveform ~domains:1 lptv ~output:"out2" ~sources in
  let w4 = Pnoise.sigma_waveform ~domains:4 lptv ~output:"out2" ~sources in
  Array.iteri
    (fun k v1 -> check_exact (Printf.sprintf "sigma(t_%d)" k) v1 w4.(k))
    w1

let test_mc_domains_identical () =
  let b = Builder.create () in
  Builder.vdc b "V1" "in" "0" 2.0;
  Builder.resistor ~tol:0.01 b "R1" "in" "out" 1e3;
  Builder.resistor ~tol:0.01 b "R2" "out" "0" 1e3;
  let c = Builder.finish b in
  let measure c' =
    let x = Dc.solve c' in
    Circuit.voltage c' x "out"
  in
  let seq =
    Monte_carlo.run_scalar ~seed:7 ~domains:1 ~n:300 ~circuit:c ~measure ()
  in
  let par =
    Monte_carlo.run_scalar ~seed:7 ~domains:4 ~n:300 ~circuit:c ~measure ()
  in
  Alcotest.(check int) "same sample count"
    (Array.length seq.Monte_carlo.values)
    (Array.length par.Monte_carlo.values);
  Array.iteri
    (fun i row ->
      check_exact
        (Printf.sprintf "sample %d" i)
        row.(0)
        par.Monte_carlo.values.(i).(0))
    seq.Monte_carlo.values;
  check_exact "mean" seq.Monte_carlo.summaries.(0).Stats.mean
    par.Monte_carlo.summaries.(0).Stats.mean;
  check_exact "sigma" seq.Monte_carlo.summaries.(0).Stats.std_dev
    par.Monte_carlo.summaries.(0).Stats.std_dev

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "parallel_for" `Quick test_pool_parallel_for;
          Alcotest.test_case "parallel_init" `Quick test_pool_parallel_init;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "serial fallback" `Quick test_pool_serial_fallback;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "lptv build" `Quick test_lptv_build_domains_identical;
          Alcotest.test_case "pnoise" `Quick test_pnoise_domains_identical;
          Alcotest.test_case "monte-carlo" `Quick test_mc_domains_identical;
        ] );
    ]
