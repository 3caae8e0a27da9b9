(* Telemetry subsystem tests: span-tree shape, counter totals
   cross-checked against engine-reported iteration counts, JSON
   well-formedness of the metrics/trace exports, bit-identical results
   with telemetry on vs off, and debug-mode misuse detection. *)

let with_obs f =
  Obs.enable ();
  Fun.protect ~finally:(fun () -> Obs.disable ()) f

let divider () =
  let b = Builder.create () in
  Builder.vdc b "V1" "in" "0" 2.0;
  Builder.resistor ~tol:0.01 b "R1" "in" "out" 1e3;
  Builder.resistor ~tol:0.01 b "R2" "out" "0" 1e3;
  Builder.capacitor b "C1" "out" "0" 1e-12;
  Builder.finish b

let inverter () =
  let b = Builder.create () in
  Builder.vdc b "VDD" "vdd" "0" 1.2;
  Builder.vdc b "VIN" "in" "0" 0.6;
  Gates.inverter b "inv" ~input:"in" ~output:"out" ~vdd:"vdd";
  Builder.finish b

let driven_rc ~freq =
  let b = Builder.create () in
  Builder.vsource b "VIN" "in" "0"
    (Wave.Sin { Wave.offset = 0.5; ampl = 0.2; freq; phase_deg = 0.0 });
  Builder.resistor b "R1" "in" "out" 1e3;
  Builder.capacitor b "C1" "out" "0" 159.155e-12;
  Builder.finish b

(* ------------------------------------------------------------ span tree *)

let test_span_tree () =
  with_obs (fun () ->
      Obs.root "r" (fun () ->
          Obs.span "a" (fun () -> Obs.span "b" (fun () -> ()));
          Obs.span "a" (fun () -> ());
          Obs.span "c" (fun () -> ()));
      match Obs.snapshot_spans () with
      | [ r ] ->
        Alcotest.(check string) "root name" "r" r.Obs.span_name;
        Alcotest.(check int) "root calls" 1 r.Obs.calls;
        Alcotest.(check (list string)) "children in first-opened order"
          [ "a"; "c" ]
          (List.map (fun t -> t.Obs.span_name) r.Obs.children);
        let a = List.hd r.Obs.children in
        Alcotest.(check int) "same-name spans merge" 2 a.Obs.calls;
        Alcotest.(check (list string)) "grandchildren" [ "b" ]
          (List.map (fun t -> t.Obs.span_name) a.Obs.children)
      | ts ->
        Alcotest.failf "expected exactly one top-level span, got %d"
          (List.length ts))

let test_span_exception_safe () =
  with_obs (fun () ->
      (try Obs.span "boom" (fun () -> failwith "x") with Failure _ -> ());
      Obs.span "after" (fun () -> ());
      let names = List.map (fun t -> t.Obs.span_name) (Obs.snapshot_spans ()) in
      Alcotest.(check (list string)) "span closed on raise" [ "boom"; "after" ]
        names)

(* ------------------------------------------- counters vs engine reports *)

let test_newton_counter () =
  let c = inverter () in
  let sys = Linsys.make c in
  let eval ~x ~g =
    Stamp.eval c ~t:0.0 ~gmin:1e-12 ~src_scale:1.0 ~x ~g
      ~jac:(Some sys.Linsys.sink) ()
  in
  with_obs (fun () ->
      let r = Newton.solve ~eval ~sys ~x0:(Vec.create (Circuit.size c)) () in
      Alcotest.(check bool) "converged" true r.Newton.converged;
      Alcotest.(check bool) "took iterations" true (r.Newton.iterations > 0);
      Alcotest.(check int) "newton.solves" 1 (Obs.counter_value "newton.solves");
      Alcotest.(check int) "newton.iterations equals engine report"
        r.Newton.iterations
        (Obs.counter_value "newton.iterations"))

let test_pss_counter () =
  let freq = 1e5 in
  let c = driven_rc ~freq in
  with_obs (fun () ->
      let pss = Pss.solve ~steps:100 ~warmup_periods:0 c ~period:(1.0 /. freq) in
      Alcotest.(check bool) "took shooting iterations" true
        (pss.Pss.iterations > 0);
      Alcotest.(check int) "pss.shooting_iterations equals engine report"
        pss.Pss.iterations
        (Obs.counter_value "pss.shooting_iterations"))

let test_tran_counters () =
  let c = divider () in
  with_obs (fun () ->
      let w = Tran.run c ~tstart:0.0 ~tstop:1e-8 ~dt:1e-9 () in
      let samples = Array.length w.Waveform.times in
      Alcotest.(check int) "tran.runs" 1 (Obs.counter_value "tran.runs");
      Alcotest.(check bool) "tran.steps covers the accepted grid" true
        (Obs.counter_value "tran.steps" >= samples - 1))

(* ------------------------------------------------------------ JSON exports *)

let find_counter json name =
  match Obs_json.member "counters" json with
  | Some c -> (match Obs_json.member name c with
               | Some v -> int_of_float (Obs_json.to_num v)
               | None -> 0)
  | None -> Alcotest.fail "metrics JSON has no counters object"

let test_metrics_json () =
  let c = divider () in
  with_obs (fun () ->
      Obs.root "varsim" (fun () ->
          let ctx = Analysis.prepare ~steps:50 c ~period:1e-6 in
          ignore
            (Pnoise.analyze ctx.Analysis.lptv ~output:"out" ~harmonic:0
               ~sources:ctx.Analysis.sources));
      let m = Obs_json.parse (Obs.metrics_json ()) in
      let root =
        match Obs_json.member "root" m with
        | Some r -> r
        | None -> Alcotest.fail "no root span"
      in
      (match Obs_json.member "name" root with
       | Some n -> Alcotest.(check string) "root span" "varsim"
                     (Obs_json.to_string n)
       | None -> Alcotest.fail "root span has no name");
      Alcotest.(check bool) "newton.iterations counted" true
        (find_counter m "newton.iterations" > 0);
      Alcotest.(check bool) "lptv.builds counted" true
        (find_counter m "lptv.builds" = 1))

(* a 2-lane Monte Carlo run names one track per sample lane.  With
   [~timeline:false] (the serve daemon without --trace) spans still
   aggregate but leave no slices behind: the same run yields the same
   tracks and span tree and no complete events *)
let test_trace_json () =
  let c = divider () in
  List.iter
    (fun timeline ->
      Obs.enable ~timeline ();
      Fun.protect ~finally:(fun () -> Obs.disable ()) @@ fun () ->
      Obs.root "varsim" (fun () ->
          ignore
            (Monte_carlo.run_scalar ~seed:3 ~domains:2 ~n:16 ~circuit:c
               ~measure:(fun c' -> Circuit.voltage c' (Dc.solve c') "out")
               ()));
      let t = Obs_json.parse (Obs.trace_json ()) in
      let evs =
        match Obs_json.member "traceEvents" t with
        | Some l -> Obs_json.to_list l
        | None -> Alcotest.fail "no traceEvents"
      in
      let phase e =
        match Obs_json.member "ph" e with
        | Some p -> Obs_json.to_string p
        | None -> ""
      in
      Alcotest.(check bool)
        (Printf.sprintf "complete events iff timeline=%b" timeline)
        timeline
        (List.exists (fun e -> phase e = "X") evs);
      Alcotest.(check bool) "span tree recorded" true
        (List.map (fun t -> t.Obs.span_name) (Obs.snapshot_spans ())
         = [ "varsim" ]);
      let thread_names =
        List.filter_map
          (fun e ->
            if phase e = "M" then
              match (Obs_json.member "name" e, Obs_json.member "args" e) with
              | Some (Obs_json.Str "thread_name"), Some args ->
                Option.map Obs_json.to_string (Obs_json.member "name" args)
              | _ -> None
            else None)
          evs
      in
      List.iter
        (fun want ->
          Alcotest.(check bool) (Printf.sprintf "track %S present" want) true
            (List.mem want thread_names))
        [ "main"; "lane 0"; "lane 1" ])
    [ true; false ]

(* ------------------------------------------------------------ histograms *)

let hist_of values =
  let h = Histogram.create () in
  List.iter (Histogram.observe h) values;
  h

(* exact equality on the integer state; the float sum may differ in the
   last ulps with addition order *)
let hists_agree a b =
  Histogram.count a = Histogram.count b
  && Histogram.nonpos a = Histogram.nonpos b
  && Histogram.buckets a = Histogram.buckets b
  && Float.equal (Histogram.min_value a) (Histogram.min_value b)
  && Float.equal (Histogram.max_value a) (Histogram.max_value b)
  && Float.abs (Histogram.sum a -. Histogram.sum b)
     <= 1e-9 *. (1.0 +. Float.abs (Histogram.sum a))

let test_histogram_basics () =
  let h = hist_of [ 0.5; 1.0; 2.0; 4.0; -1.0; 0.0; Float.nan ] in
  Alcotest.(check int) "count includes nonpos" 7 (Histogram.count h);
  Alcotest.(check int) "nonpos bin" 3 (Histogram.nonpos h);
  Alcotest.(check (float 1e-12)) "min" 0.5 (Histogram.min_value h);
  Alcotest.(check (float 1e-12)) "max" 4.0 (Histogram.max_value h);
  Alcotest.(check int) "four distinct buckets" 4
    (List.length (Histogram.buckets h));
  (* rank 3 of 7 is still inside the nonpos bin, which reads as 0 *)
  Alcotest.(check (float 0.0)) "quantile inside nonpos" 0.0
    (Histogram.quantile h 0.3);
  let p100 = Histogram.quantile h 1.0 in
  let i = Histogram.index_of 4.0 in
  Alcotest.(check bool) "p100 inside the max bucket" true
    (Histogram.bucket_lower i <= p100 && p100 < Histogram.bucket_upper i);
  Alcotest.(check (float 0.0)) "empty histogram" 0.0
    (Histogram.quantile (Histogram.create ()) 0.5)

let test_histogram_json_roundtrip () =
  let h = hist_of [ 1e-9; 0.25; 3.0; 3.1; 1e6; -2.0 ] in
  let b = Buffer.create 64 in
  Histogram.to_json_buf b h;
  (match Histogram.of_json (Obs_json.parse (Buffer.contents b)) with
   | Some h' ->
     Alcotest.(check bool) "roundtrip preserves state" true (hists_agree h h')
   | None -> Alcotest.fail "of_json rejected its own encoding");
  (* a torn line whose bucket counts no longer account for [count] must
     be rejected, not half-applied *)
  let torn =
    Obs_json.parse "{\"count\":5,\"sum\":1.0,\"nonpos\":0,\"buckets\":[[8,2]]}"
  in
  Alcotest.(check bool) "inconsistent totals rejected" true
    (Histogram.of_json torn = None)

let float_list = QCheck.(list_of_size Gen.(0 -- 100) float)

let prop_merge_commutative =
  QCheck.Test.make ~count:300 ~name:"histogram merge is commutative"
    QCheck.(pair float_list float_list)
    (fun (xs, ys) ->
      let a = hist_of xs and b = hist_of ys in
      let ab = Histogram.merge a b and ba = Histogram.merge b a in
      hists_agree ab ba
      (* and neither input was mutated *)
      && hists_agree a (hist_of xs)
      && hists_agree b (hist_of ys))

let prop_merge_associative =
  QCheck.Test.make ~count:300 ~name:"histogram merge is associative"
    QCheck.(triple float_list float_list float_list)
    (fun (xs, ys, zs) ->
      let a = hist_of xs and b = hist_of ys and c = hist_of zs in
      hists_agree
        (Histogram.merge (Histogram.merge a b) c)
        (Histogram.merge a (Histogram.merge b c)))

let prop_quantile_in_bucket =
  QCheck.Test.make ~count:300
    ~name:"quantile estimate shares the exact sample quantile's bucket"
    QCheck.(pair (list_of_size Gen.(1 -- 200) pos_float) (int_bound 100))
    (fun (raw, k) ->
      let values =
        List.map
          (fun v -> if v > 0.0 && Float.is_finite v then v else 1.0)
          raw
      in
      let n = List.length values in
      let q = float_of_int k /. 100.0 in
      let rank =
        let r = int_of_float (Float.ceil (q *. float_of_int n)) in
        if r < 1 then 1 else if r > n then n else r
      in
      let exact = List.nth (List.sort compare values) (rank - 1) in
      let est = Histogram.quantile (hist_of values) q in
      let i = Histogram.index_of exact in
      Histogram.bucket_lower i <= est && est < Histogram.bucket_upper i)

let test_observe_quantile () =
  with_obs (fun () ->
      for i = 1 to 100 do
        Obs.observe "t.seconds" (float_of_int i)
      done;
      (match Obs.quantile "t.seconds" 0.5 with
       | Some v ->
         (* p50 of 1..100 is 50; one log-linear bucket is ~9% wide *)
         Alcotest.(check bool) "p50 within one bucket of 50" true
           (v >= 44.0 && v <= 57.0)
       | None -> Alcotest.fail "histogram missing");
      Alcotest.(check bool) "unknown histogram reads None" true
        (Obs.quantile "no.such" 0.5 = None);
      Alcotest.(check bool) "snapshot lists it" true
        (List.mem_assoc "t.seconds" (Obs.histograms ())))

(* ------------------------------------------------------------ prometheus *)

let test_prometheus () =
  with_obs (fun () ->
      Obs.count "newton.solves" 3;
      Obs.gauge "serve.lanes.busy" 2.0;
      List.iter (Obs.observe "serve.request.seconds") [ 0.01; 0.02; 0.04; -1.0 ];
      let lines = String.split_on_char '\n' (Obs.prometheus ()) in
      let has l = List.mem l lines in
      Alcotest.(check bool) "counter sample" true
        (has "varsim_newton_solves_total 3");
      Alcotest.(check bool) "gauge sample" true
        (has "varsim_serve_lanes_busy 2");
      Alcotest.(check bool) "+Inf bucket" true
        (has "varsim_serve_request_seconds_bucket{le=\"+Inf\"} 4");
      Alcotest.(check bool) "_count" true
        (has "varsim_serve_request_seconds_count 4");
      let bucket_counts =
        List.filter_map
          (fun l ->
            let p = "varsim_serve_request_seconds_bucket{le=\"" in
            if String.starts_with ~prefix:p l then
              Option.map
                (fun i ->
                  int_of_string (String.sub l (i + 1) (String.length l - i - 1)))
                (String.rindex_opt l ' ')
            else None)
          lines
      in
      (* the nonpos observation sorts below every finite bound, so it
         seeds the cumulative counts *)
      Alcotest.(check bool) "first cumulative count includes nonpos" true
        (match bucket_counts with c :: _ -> c >= 1 | [] -> false);
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      Alcotest.(check bool) "bucket counts cumulative" true (mono bucket_counts))

(* ------------------------------------------------------- gauges and faults *)

let test_gauge_cross_domain () =
  with_obs (fun () ->
      let writers =
        List.init 4 (fun k ->
            Domain.spawn (fun () ->
                for _ = 1 to 1000 do
                  Obs.gauge "g.race" (float_of_int k)
                done))
      in
      List.iter Domain.join writers;
      match List.assoc_opt "g.race" (Obs.gauges ()) with
      | Some v ->
        Alcotest.(check bool) "winner is one of the written values" true
          (List.exists (fun k -> Float.equal v (float_of_int k)) [ 0; 1; 2; 3 ])
      | None -> Alcotest.fail "gauge missing after concurrent writes")

let test_export_fault_degrades () =
  with_obs (fun () ->
      Obs.root "varsim" (fun () -> Obs.count "x" 1);
      let path = Filename.temp_file "varsim_obs" ".json" in
      Sys.remove path;
      Faultsim.arm
        [ { Faultsim.site = "obs.export"; visit = 0; fault = Faultsim.Exn "boom" } ];
      Fun.protect ~finally:Faultsim.disarm (fun () ->
          Obs.write_metrics path;
          Alcotest.(check bool) "faulted export writes nothing" true
            (not (Sys.file_exists path));
          Alcotest.(check int) "loss counted" 1
            (Obs.counter_value "obs.export.errors");
          Obs.write_metrics path;
          Alcotest.(check bool) "next export lands" true (Sys.file_exists path);
          Sys.remove path);
      List.iter
        (fun site ->
          Alcotest.(check bool) (site ^ " is a known site") true
            (List.mem site (Faultsim.known_sites ())))
        [ "obs.export"; "serve.log.write" ])

(* -------------------------------------------------------- bit-identical *)

let test_bit_identical () =
  let c = inverter () in
  let x_off = Dc.solve c in
  let x_on = with_obs (fun () -> Obs.root "varsim" (fun () -> Dc.solve c)) in
  Alcotest.(check int) "same size" (Vec.dim x_off) (Vec.dim x_on);
  Array.iteri
    (fun i v ->
      if not (Float.equal v x_on.(i)) then
        Alcotest.failf "DC row %d differs: %.17g vs %.17g" i v x_on.(i))
    x_off;
  let psd_of () =
    let d = divider () in
    let ctx = Analysis.prepare ~steps:40 d ~period:1e-6 in
    (Pnoise.analyze ctx.Analysis.lptv ~output:"out" ~harmonic:0
       ~sources:ctx.Analysis.sources)
      .Pnoise.total_psd
  in
  let psd_off = psd_of () in
  let psd_on = with_obs (fun () -> Obs.root "varsim" psd_of) in
  if not (Float.equal psd_off psd_on) then
    Alcotest.failf "PNOISE PSD differs with telemetry: %.17g vs %.17g" psd_off
      psd_on

(* --------------------------------------------------------------- misuse *)

let with_debug f =
  with_obs (fun () ->
      Obs.debug := true;
      Fun.protect ~finally:(fun () -> Obs.debug := false) f)

let test_misuse_unopened () =
  with_debug (fun () ->
      match Obs.span_end "nope" with
      | () -> Alcotest.fail "span_end with no open span should raise"
      | exception Obs.Misuse _ -> ())

let test_misuse_mismatch () =
  with_debug (fun () ->
      Obs.span_begin "a";
      (match Obs.span_end "b" with
       | () -> Alcotest.fail "mismatched span_end should raise"
       | exception Obs.Misuse _ -> ());
      (* the open span is still intact and can be closed properly *)
      Obs.span_end "a")

let test_misuse_double_root () =
  with_debug (fun () ->
      Obs.root "r1" (fun () ->
          match Obs.root "r2" (fun () -> ()) with
          | () -> Alcotest.fail "second root should raise"
          | exception Obs.Misuse _ -> ()))

let test_misuse_ignored_without_debug () =
  with_obs (fun () ->
      (* release behaviour: misuse is dropped, recording keeps working *)
      Obs.span_end "nope";
      Obs.root "r1" (fun () -> Obs.root "r2" (fun () -> ()));
      Alcotest.(check bool) "still recording" true
        (Obs.snapshot_spans () <> []))

(* random begin/end sequences against a reference stack model *)
let prop_misuse_model =
  QCheck.Test.make ~count:200
    ~name:"debug span misuse matches a reference stack model"
    QCheck.(list (pair bool (int_bound 2)))
    (fun ops ->
      let names = [| "a"; "b"; "c" |] in
      Obs.enable ();
      Obs.debug := true;
      let stack = ref [] in
      let ok = ref true in
      List.iter
        (fun (is_begin, k) ->
          let name = names.(k) in
          if is_begin then begin
            Obs.span_begin name;
            stack := name :: !stack
          end
          else begin
            let expect_raise =
              match !stack with [] -> true | top :: _ -> top <> name
            in
            match Obs.span_end name with
            | () ->
              if expect_raise then ok := false else stack := List.tl !stack
            | exception Obs.Misuse _ -> if not expect_raise then ok := false
          end)
        ops;
      Obs.debug := false;
      Obs.disable ();
      !ok)

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting, merging, ordering" `Quick test_span_tree;
          Alcotest.test_case "exception safe" `Quick test_span_exception_safe;
        ] );
      ( "counters",
        [
          Alcotest.test_case "newton.iterations" `Quick test_newton_counter;
          Alcotest.test_case "pss.shooting_iterations" `Quick test_pss_counter;
          Alcotest.test_case "tran.steps" `Quick test_tran_counters;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "observe, bins, quantile" `Quick
            test_histogram_basics;
          Alcotest.test_case "json roundtrip, torn line rejected" `Quick
            test_histogram_json_roundtrip;
          Alcotest.test_case "named histograms via Obs" `Quick
            test_observe_quantile;
          QCheck_alcotest.to_alcotest prop_merge_commutative;
          QCheck_alcotest.to_alcotest prop_merge_associative;
          QCheck_alcotest.to_alcotest prop_quantile_in_bucket;
        ] );
      ( "exports",
        [
          Alcotest.test_case "metrics json" `Quick test_metrics_json;
          Alcotest.test_case "trace json" `Quick test_trace_json;
          Alcotest.test_case "prometheus text" `Quick test_prometheus;
          Alcotest.test_case "bit-identical results" `Quick test_bit_identical;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "gauge writes race-free across domains" `Quick
            test_gauge_cross_domain;
          Alcotest.test_case "obs.export fault degrades gracefully" `Quick
            test_export_fault_degrades;
        ] );
      ( "misuse",
        [
          Alcotest.test_case "unopened end" `Quick test_misuse_unopened;
          Alcotest.test_case "name mismatch" `Quick test_misuse_mismatch;
          Alcotest.test_case "double root" `Quick test_misuse_double_root;
          Alcotest.test_case "ignored without debug" `Quick
            test_misuse_ignored_without_debug;
          QCheck_alcotest.to_alcotest prop_misuse_model;
        ] );
    ]
