(* The content-addressed cache stack (docs/serving.md):

   - fingerprint canonicalization: the digest ignores declaration
     order and comment/whitespace noise but pins every electrically
     meaningful quantity and the analysis cards;
   - the in-memory LRU: recency-ordered eviction, counters;
   - the on-disk store: atomic roundtrip, and the robustness property
     that any truncation or payload corruption of an entry is a miss,
     never an error or a wrong payload (QCheck over cut points);
   - injected cache.read / cache.write faults degrade to
     compute-through without changing results;
   - concurrent writers of one key each get their own tmp file, so
     none of their renames fails;
   - the typed job API: an identical resubmission replays the stored
     bytes verbatim (byte-identical) with all plan/PSS work skipped,
     asserted through the symbolic.plan / pss.* counters, and a cold
     job stores exactly one entry, its rendered result. *)

let with_obs f =
  Obs.enable ();
  Fun.protect ~finally:(fun () -> Obs.disable ()) f

let counter = Obs.counter_value

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "varsim_cache_%d_%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  f dir

let mem_cache () =
  match Cache.create () with
  | Ok c -> c
  | Error e -> Alcotest.failf "mem cache: %s" e

let disk_cache dir =
  match Cache.create ~dir ~meta:(Version.provenance ()) () with
  | Ok c -> c
  | Error e -> Alcotest.failf "disk cache: %s" e

(* a recomputed job renders its own wall-clock runtime, so two runs
   that both compute may differ there and nowhere else *)
let strip_runtime s = Str.global_replace (Str.regexp "([0-9.]+s)") "(-)" s

(* --------------------------------------------------- fingerprints *)

let deck_a =
  "divider\n\
   V1 in 0 2.0\n\
   R1 in out 10k tol=0.01\n\
   R2 out 0 10k tol=0.01\n\
   .op\n\
   .dcmatch out\n\
   .end\n"

(* same circuit and cards: devices re-ordered, comments and blank
   lines sprinkled in, whitespace mangled *)
let deck_a_noisy =
  "divider\n\
   * the load leg first, for no reason\n\
   R2   out    0   10k   tol=0.01\n\
   \n\
   V1 in 0 2.0\n\
   R1 in out 10k tol=0.01\n\
   * cards\n\
   .op\n\
   .dcmatch   out\n\
   .end\n"

let fp text = Spice_elab.fingerprint (Spice_elab.load_string text)

let test_fingerprint_invariance () =
  Alcotest.(check string)
    "declaration order and comment/whitespace noise do not change the digest"
    (fp deck_a) (fp deck_a_noisy)

let replace ~sub ~by s = Str.global_replace (Str.regexp_string sub) by s

let test_fingerprint_sensitivity () =
  let ne label a b =
    Alcotest.(check bool) label false (String.equal a b)
  in
  ne "a device value is pinned" (fp deck_a)
    (fp (replace ~sub:"R2 out 0 10k" ~by:"R2 out 0 20k" deck_a));
  ne "a mismatch tolerance is pinned" (fp deck_a)
    (fp (replace ~sub:"R1 in out 10k tol=0.01" ~by:"R1 in out 10k tol=0.02"
           deck_a));
  ne "topology is pinned" (fp deck_a)
    (fp (replace ~sub:"R1 in out" ~by:"R1 in 0" deck_a));
  ne "the analysis card list is pinned" (fp deck_a)
    (fp (replace ~sub:".dcmatch out\n" ~by:"" deck_a));
  ne "an analysis argument is pinned" (fp deck_a)
    (fp (replace ~sub:".dcmatch out" ~by:".dcmatch in" deck_a))

let test_job_fingerprint_knobs () =
  let deck = Spice_elab.load_string deck_a in
  let base = Spice_job.fingerprint (Spice_job.request deck) in
  Alcotest.(check string) "defaults are stable" base
    (Spice_job.fingerprint (Spice_job.request deck));
  Alcotest.(check string) "domains is excluded (bit-identical by design)"
    base
    (Spice_job.fingerprint (Spice_job.request ~domains:7 deck));
  let ne label req =
    Alcotest.(check bool) label false
      (String.equal base (Spice_job.fingerprint req))
  in
  ne "steps is a result-shaping knob" (Spice_job.request ~steps:400 deck);
  ne "f_offset is a result-shaping knob"
    (Spice_job.request ~f_offset:2.0 deck)

(* a job outcome and every serve response carry the provenance, so it
   is built once per process rather than spawning git per call *)
let test_provenance_computed_once () =
  Alcotest.(check bool) "same physical string" true
    (Version.provenance () == Version.provenance ())

(* ------------------------------------------------------------- LRU *)

let test_lru_eviction_order () =
  with_obs @@ fun () ->
  let l = Lru.create ~capacity:2 "t0" in
  Lru.put l "a" 1;
  Lru.put l "b" 2;
  ignore (Lru.find l "a" : int option);  (* refresh a: b is now LRU *)
  Lru.put l "c" 3;
  Alcotest.(check int) "bounded" 2 (Lru.length l);
  Alcotest.(check bool) "b evicted (least recently used)" true
    (Lru.find l "b" = None);
  Alcotest.(check bool) "a survived (refreshed)" true (Lru.find l "a" = Some 1);
  Alcotest.(check bool) "c present" true (Lru.find l "c" = Some 3);
  Alcotest.(check int) "eviction counted" 1 (counter "cache.t0.evictions")

let test_lru_zero_capacity () =
  let l = Lru.create ~capacity:0 "t1" in
  Lru.put l "a" 1;
  Alcotest.(check bool) "capacity 0 disables" true (Lru.find l "a" = None);
  Alcotest.(check int) "empty" 0 (Lru.length l)

(* ------------------------------------------------------ disk store *)

let open_store dir =
  match Cache_store.open_dir dir with
  | Ok s -> s
  | Error e -> Alcotest.failf "open_dir: %s" e

let test_store_roundtrip () =
  with_temp_dir @@ fun dir ->
  with_obs @@ fun () ->
  let s = open_store dir in
  Cache_store.put s ~key:"k1" ~meta:"prov" "payload bytes";
  Alcotest.(check (option string)) "roundtrip" (Some "payload bytes")
    (Cache_store.get s ~key:"k1");
  (match Cache_store.get_entry s ~key:"k1" with
   | Some (p, m) ->
     Alcotest.(check string) "payload" "payload bytes" p;
     Alcotest.(check string) "provenance meta" "prov" m
   | None -> Alcotest.fail "entry vanished");
  Alcotest.(check (option string)) "missing key is a miss" None
    (Cache_store.get s ~key:"nope");
  Alcotest.(check int) "hits counted" 2 (counter "cache.disk.hits");
  Alcotest.(check int) "misses counted" 1 (counter "cache.disk.misses")

(* any truncation of an entry file is a miss, never an error *)
let prop_truncated_entry_is_miss =
  QCheck.Test.make ~count:60 ~name:"truncated cache entry = miss"
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 0 200)) (int_bound 10_000))
    (fun (payload, seed) ->
      with_temp_dir @@ fun dir ->
      let s = open_store dir in
      let key = "trunc:" ^ Digest.to_hex (Digest.string payload) in
      Cache_store.put s ~key payload;
      let path = Cache_store.entry_path s ~key in
      let full = In_channel.with_open_bin path In_channel.input_all in
      let cut = seed mod String.length full in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub full 0 cut));
      let after_cut = Cache_store.get s ~key in
      (* and the store recovers: a fresh put serves again *)
      Cache_store.put s ~key payload;
      after_cut = None && Cache_store.get s ~key = Some payload)

let test_store_corrupt_payload () =
  with_temp_dir @@ fun dir ->
  let s = open_store dir in
  let payload = String.make 256 'x' in
  Cache_store.put s ~key:"c" payload;
  let path = Cache_store.entry_path s ~key:"c" in
  let bytes = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
  (* the payload is the file's tail: flip its last byte *)
  let k = Bytes.length bytes - 1 in
  Bytes.set bytes k (Char.chr (Char.code (Bytes.get bytes k) lxor 0xff));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc bytes);
  Alcotest.(check (option string)) "checksum mismatch is a miss" None
    (Cache_store.get s ~key:"c")

let test_store_fault_degrades () =
  with_temp_dir @@ fun dir ->
  with_obs @@ fun () ->
  let s = open_store dir in
  Fun.protect ~finally:Faultsim.disarm @@ fun () ->
  (* a failed write is swallowed: nothing stored, nothing raised *)
  Faultsim.arm
    [ { Faultsim.site = "cache.write"; visit = 0; fault = Faultsim.Exn "w" } ];
  Cache_store.put s ~key:"f" "data";
  Alcotest.(check (option string)) "faulted write stored nothing" None
    (Cache_store.get s ~key:"f");
  Alcotest.(check int) "write error counted" 1
    (counter "cache.disk.write_errors");
  (* a failed read is a miss over a perfectly good entry *)
  Faultsim.disarm ();
  Cache_store.put s ~key:"f" "data";
  Faultsim.arm
    [ { Faultsim.site = "cache.read"; visit = 0; fault = Faultsim.Exn "r" } ];
  Alcotest.(check (option string)) "faulted read is a miss" None
    (Cache_store.get s ~key:"f");
  Alcotest.(check (option string)) "entry intact after the fault"
    (Some "data")
    (Cache_store.get s ~key:"f")

(* two lanes of one process storing the same key: each write has its
   own tmp file, so no rename loses its source and no write is counted
   as an error *)
let test_store_concurrent_writers () =
  with_temp_dir @@ fun dir ->
  with_obs @@ fun () ->
  let s = open_store dir in
  let writer () =
    for _ = 1 to 300 do
      Cache_store.put s ~key:"shared" "same payload"
    done
  in
  let d = Domain.spawn writer in
  writer ();
  Domain.join d;
  Alcotest.(check int) "no write errors" 0 (counter "cache.disk.write_errors");
  Alcotest.(check int) "every write landed" 600 (counter "cache.disk.writes");
  Alcotest.(check (option string)) "the entry reads back"
    (Some "same payload") (Cache_store.get s ~key:"shared")

(* ------------------------------------------------- the typed job API *)

let pss_deck =
  "rc mismatch\n\
   V1 in 0 PULSE(0 1 0 1n 1n 4n 10n)\n\
   R1 in out 10k tol=0.01\n\
   C1 out 0 1p\n\
   .op\n\
   .mismatch out pss=10n\n\
   .end\n"

let test_job_result_cache_byte_identity () =
  with_obs @@ fun () ->
  let deck = Spice_elab.load_string pss_deck in
  let cache = mem_cache () in
  let submit () = Spice_job.submit (Spice_job.request ~cache deck) in
  let cold = submit () in
  Alcotest.(check bool) "cold run is a miss" false cold.Spice_job.cache_hit;
  let plans = counter "symbolic.plan" in
  let pss = counter "pss.solves" in
  let newton = counter "newton.solves" in
  let warm = submit () in
  Alcotest.(check bool) "warm run is a hit" true warm.Spice_job.cache_hit;
  Alcotest.(check string) "bytes replayed verbatim" cold.Spice_job.output
    warm.Spice_job.output;
  Alcotest.(check string) "same fingerprint" cold.Spice_job.fingerprint
    warm.Spice_job.fingerprint;
  Alcotest.(check int) "no plan work on the warm path" plans
    (counter "symbolic.plan");
  Alcotest.(check int) "no PSS work on the warm path" pss
    (counter "pss.solves");
  Alcotest.(check int) "no Newton work on the warm path" newton
    (counter "newton.solves");
  Alcotest.(check int) "hit counted" 1 (counter "cache.result.hits")

let test_job_cache_survives_restart () =
  with_temp_dir @@ fun dir ->
  with_obs @@ fun () ->
  let deck = Spice_elab.load_string pss_deck in
  let cold = Spice_job.submit (Spice_job.request ~cache:(disk_cache dir) deck) in
  (* a fresh handle on the same directory models a daemon restart *)
  let warm = Spice_job.submit (Spice_job.request ~cache:(disk_cache dir) deck) in
  Alcotest.(check bool) "hit across handles" true warm.Spice_job.cache_hit;
  Alcotest.(check string) "bytes identical across handles"
    cold.Spice_job.output warm.Spice_job.output;
  (match Cache_store.get_entry (open_store dir)
           ~key:(cold.Spice_job.fingerprint ^ "|result")
   with
   | Some (_, meta) ->
     Alcotest.(check string) "entries carry provenance"
       (Version.provenance ()) meta
   | None -> Alcotest.fail "result entry not on disk")

let test_job_cache_fault_compute_through () =
  with_temp_dir @@ fun dir ->
  with_obs @@ fun () ->
  Fun.protect ~finally:Faultsim.disarm @@ fun () ->
  (* every disk access fails: the cache must cost nothing but time *)
  Faultsim.arm
    [ { Faultsim.site = "cache.read"; visit = -1; fault = Faultsim.Exn "r" };
      { Faultsim.site = "cache.write"; visit = -1; fault = Faultsim.Exn "w" } ];
  let deck = Spice_elab.load_string pss_deck in
  let a = Spice_job.submit (Spice_job.request ~cache:(disk_cache dir) deck) in
  let b = Spice_job.submit (Spice_job.request ~cache:(disk_cache dir) deck) in
  (* both runs compute through, so only their runtimes may differ *)
  Alcotest.(check string) "results identical under a faulty cache"
    (strip_runtime a.Spice_job.output) (strip_runtime b.Spice_job.output);
  Alcotest.(check bool) "faulted disk never serves a hit" false
    b.Spice_job.cache_hit;
  Alcotest.(check bool) "read errors surfaced in counters" true
    (counter "cache.disk.read_errors" > 0)

let test_job_engine_faults_block_caching () =
  with_obs @@ fun () ->
  Fun.protect ~finally:Faultsim.disarm @@ fun () ->
  let deck = Spice_elab.load_string pss_deck in
  let cache = mem_cache () in
  let clean = Spice_job.submit (Spice_job.request ~cache deck) in
  (* an armed engine site — even one that never fires — must bypass
     the cache entirely: a run under injection is neither stored nor
     served (the stored bytes could reflect the injected fault) *)
  Faultsim.arm
    [ { Faultsim.site = "newton.residual"; visit = 99_999;
        fault = Faultsim.Nan } ];
  let under = Spice_job.submit (Spice_job.request ~cache deck) in
  Alcotest.(check bool) "no hit while an engine site is armed" false
    under.Spice_job.cache_hit;
  (* recomputed, so the rendered wall-clock runtime may differ — the
     numbers may not (the replay path is exercised above; byte
     identity only holds for replayed bytes) *)
  Alcotest.(check string) "recomputed numbers still identical"
    (strip_runtime clean.Spice_job.output)
    (strip_runtime under.Spice_job.output)

(* a cold job stores its rendered result and nothing else *)
let test_job_one_entry () =
  with_temp_dir @@ fun dir ->
  with_obs @@ fun () ->
  let deck = Spice_elab.load_string pss_deck in
  let o = Spice_job.submit (Spice_job.request ~cache:(disk_cache dir) deck) in
  let entries =
    List.filter
      (fun f -> Filename.check_suffix f ".vsc")
      (Array.to_list (Sys.readdir dir))
  in
  let result_entry =
    Filename.basename
      (Cache_store.entry_path (open_store dir)
         ~key:(o.Spice_job.fingerprint ^ "|result"))
  in
  Alcotest.(check (list string)) "one entry: the rendered result"
    [ result_entry ] entries;
  Alcotest.(check int) "one disk write" 1 (counter "cache.disk.writes")

let () =
  Random.self_init ();
  Alcotest.run "cache"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "order/noise invariance" `Quick
            test_fingerprint_invariance;
          Alcotest.test_case "sensitivity" `Quick test_fingerprint_sensitivity;
          Alcotest.test_case "job knobs" `Quick test_job_fingerprint_knobs;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "zero capacity" `Quick test_lru_zero_capacity;
        ] );
      ( "store",
        [
          Alcotest.test_case "roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "corrupt payload" `Quick
            test_store_corrupt_payload;
          Alcotest.test_case "fault degradation" `Quick
            test_store_fault_degrades;
          Alcotest.test_case "concurrent writers of one key" `Quick
            test_store_concurrent_writers;
          QCheck_alcotest.to_alcotest prop_truncated_entry_is_miss;
        ] );
      ( "job",
        [
          Alcotest.test_case "byte-identical replay" `Quick
            test_job_result_cache_byte_identity;
          Alcotest.test_case "survives restart" `Quick
            test_job_cache_survives_restart;
          Alcotest.test_case "faulty cache computes through" `Quick
            test_job_cache_fault_compute_through;
          Alcotest.test_case "engine faults block caching" `Quick
            test_job_engine_faults_block_caching;
          Alcotest.test_case "one entry per job" `Quick test_job_one_entry;
          Alcotest.test_case "provenance computed once" `Quick
            test_provenance_computed_once;
        ] );
    ]
