(* Determinism and correctness of the lane loop: [Lanes.run] itself,
   and the guarantee that Monte Carlo sample lanes are bit-identical to
   the single-domain run. *)

let check_exact msg a b = Alcotest.(check (float 0.0)) msg a b

(* ------------------------------------------------------------ the lanes *)

(* A domain spawner that counts the lanes it starts and the joins that
   [run] completes; the call numbered [fail_on] raises instead of
   starting a lane. *)
let counting ?fail_on () =
  let calls = Atomic.make 0 and started = Atomic.make 0 in
  let joined = Atomic.make 0 in
  let spawn f =
    if Some (Atomic.fetch_and_add calls 1 + 1) = fail_on then
      failwith "spawn failed";
    let join = Lanes.domain f in
    Atomic.incr started;
    fun () ->
      join ();
      Atomic.incr joined
  in
  (spawn, started, joined)

let test_every_index_once () =
  let n = 1000 in
  List.iter
    (fun lanes ->
      let spawn, started, joined = counting () in
      let runs = Array.init n (fun _ -> Atomic.make 0) in
      Lanes.run ~spawn ~lanes n (fun i -> Atomic.incr runs.(i));
      Array.iteri
        (fun i r ->
          Alcotest.(check int)
            (Printf.sprintf "index %d at %d lanes" i lanes)
            1 (Atomic.get r))
        runs;
      Alcotest.(check int)
        (Printf.sprintf "lanes started at %d lanes" lanes)
        (lanes - 1) (Atomic.get started);
      Alcotest.(check int)
        (Printf.sprintf "lanes joined at %d lanes" lanes)
        (lanes - 1) (Atomic.get joined))
    [ 1; 2; 4 ]

let test_lanes_started () =
  (* a range smaller than the lane count starts only the lanes it can
     use; an empty one starts none and runs no body *)
  let spawn, started, _ = counting () in
  let out = Array.make 2 0 in
  Lanes.run ~spawn ~lanes:4 2 (fun i -> out.(i) <- i + 1);
  Alcotest.(check int) "one lane for 2 indices" 1 (Atomic.get started);
  Alcotest.(check (array int)) "both indices ran" [| 1; 2 |] out;
  let spawn, started, _ = counting () in
  Lanes.run ~spawn ~lanes:4 0 (fun _ -> Alcotest.fail "body on 0 indices");
  Alcotest.(check int) "no lane for 0 indices" 0 (Atomic.get started)

let test_body_exception () =
  (* a body failure reaches the caller only once the other lanes have
     drained the range and every lane is joined *)
  let spawn, started, joined = counting () in
  let n = 100 in
  let ran = Array.make n false in
  Alcotest.check_raises "body failure propagates" (Failure "boom") (fun () ->
      Lanes.run ~spawn ~lanes:4 n (fun i ->
          if i = 57 then failwith "boom";
          ran.(i) <- true));
  Array.iteri
    (fun i r ->
      if i <> 57 then
        Alcotest.(check bool) (Printf.sprintf "index %d ran" i) true r)
    ran;
  Alcotest.(check int) "every started lane joined" (Atomic.get started)
    (Atomic.get joined)

let test_serial_fallback () =
  (* one lane runs every index on the caller and starts nothing *)
  let spawn _ = Alcotest.fail "one lane must not spawn" in
  let out = Array.make 20 0 in
  Lanes.run ~spawn ~lanes:1 20 (fun i -> out.(i) <- i + 1);
  Alcotest.(check int) "serial path ran" 20 out.(19)

let test_spawn_failure () =
  (* the second spawn raises: the lane the first one started still
     finishes and is joined before the failure reaches the caller *)
  let spawn, started, joined = counting ~fail_on:2 () in
  let n = 200 in
  let runs = Array.init n (fun _ -> Atomic.make 0) in
  let joined_at_raise =
    match Lanes.run ~spawn ~lanes:4 n (fun i -> Atomic.incr runs.(i)) with
    | () -> Alcotest.fail "spawn failure swallowed"
    | exception Failure m ->
      Alcotest.(check string) "the spawn failure" "spawn failed" m;
      Atomic.get joined
  in
  Alcotest.(check int) "one lane started" 1 (Atomic.get started);
  Alcotest.(check int) "joined before the raise" 1 joined_at_raise;
  Array.iteri
    (fun i r ->
      Alcotest.(check int) (Printf.sprintf "index %d" i) 1 (Atomic.get r))
    runs

let test_nested_run () =
  (* a body may fan out again: the nested call starts its own lanes *)
  let outer = 4 and inner = 8 in
  let out = Array.make_matrix outer inner (-1) in
  Lanes.run ~spawn:Lanes.domain ~lanes:2 outer (fun i ->
      Lanes.run ~spawn:Lanes.domain ~lanes:2 inner (fun j ->
          out.(i).(j) <- (i * inner) + j));
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v ->
          Alcotest.(check int) (Printf.sprintf "cell %d,%d" i j)
            ((i * inner) + j) v)
        row)
    out

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
      ( "lanes",
        [
          Alcotest.test_case "every index once" `Quick test_every_index_once;
          Alcotest.test_case "lanes started" `Quick test_lanes_started;
          Alcotest.test_case "exception propagation" `Quick test_body_exception;
          Alcotest.test_case "serial fallback" `Quick test_serial_fallback;
          Alcotest.test_case "spawn failure" `Quick test_spawn_failure;
          Alcotest.test_case "nested run" `Quick test_nested_run;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "monte-carlo" `Quick test_mc_domains_identical;
        ] );
    ]
