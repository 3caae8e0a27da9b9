(* Determinism and correctness of the domain pool: the pool itself, and
   the guarantee that Monte Carlo sample lanes are bit-identical to the
   single-domain run. *)

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
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "serial fallback" `Quick test_pool_serial_fallback;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "monte-carlo" `Quick test_mc_domains_identical;
        ] );
    ]
