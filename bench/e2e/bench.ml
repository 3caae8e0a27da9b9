(* The run context every workload receives and what a workload run
   returns. *)

type ctx = {
  root : string;  (** checkout root: decks/, bench/e2e/golden, BENCHMARK.json *)
  varsim : string;  (** the built varsim binary *)
  self : string;  (** this executable, for cold-start probes *)
  work : string;  (** scratch directory of this run, removed at exit *)
  seed : int;
  seconds : float;  (** length of the timed window *)
  trace : bool;
  tiny : bool;  (** smoke sizes: smallest inputs that still cover each path *)
  probes : int;  (** cold starts behind setup_s *)
  out : string option;  (** where result and trace files go *)
}

let now = Unix.gettimeofday

let deck ctx name =
  Doc.read_file (Filename.concat ctx.root ("decks/" ^ name ^ ".sp"))

(* ------------------------------------------------------------ tally *)

type tally = {
  mutable attempted : int;
  mutable failed : int;  (** failed, timed out or incorrect *)
  mutable errors : string list;  (** the first few, newest first *)
  m : Mutex.t;
}

let tally () = { attempted = 0; failed = 0; errors = []; m = Mutex.create () }

let record t what r =
  Mutex.lock t.m;
  t.attempted <- t.attempted + 1;
  (match r with
   | Ok () -> ()
   | Error msg ->
     t.failed <- t.failed + 1;
     if List.length t.errors < 10 then t.errors <- (what ^ ": " ^ msg) :: t.errors);
  Mutex.unlock t.m

let failed_ratio t =
  if t.attempted = 0 then 0.0
  else float_of_int t.failed /. float_of_int t.attempted

(* ----------------------------------------------------------- result *)

type report = {
  tally : tally;
  e2e : (string * float) list;  (** every Catalog.end_to_end metric *)
  specific : (string * float) list;  (** Catalog.workload_specific ones that apply *)
  samples : (string * int) list;  (** samples behind each percentile *)
  trace : Catalog.trace option;  (** traced runs only *)
}

(* ---------------------------------------------------------- helpers *)

(* Run [round 0], [round 1], ... until [seconds] have passed since the
   first began, and at least [min_rounds]: whole rounds only, so every
   run does its work in the same proportions. *)
let rounds ~seconds ~min_rounds round =
  let t0 = now () in
  let rec go r =
    if r < min_rounds || now () -. t0 < seconds then begin
      round r;
      go (r + 1)
    end
  in
  go 0

(* a cold start timed from spawn to exit *)
let timed_exit ctx tally ~what prog args =
  let t0 = now () in
  let pid = Host.spawn ~log:(Filename.concat ctx.work "children.log") prog args in
  let st = Host.wait pid in
  let dt = now () -. t0 in
  record tally what
    (if Host.status_ok st then Ok () else Error (Host.describe_status st));
  dt

(* A quantile of a job mix, each job counted as the median latency of
   its kind (the same deck, card, seed or hot entry) over the run.  A
   burst of host contention slows a few jobs, not the median of their
   kind, so the p90 is the latency of the slow kind of job rather than
   of the host's slow moments.  [median] is the kind's median, by
   default that of [Doc]. *)
let mix_quantile ?(median = Doc.median) jobs q =
  let by_kind = Hashtbl.create 16 in
  List.iter
    (fun (k, v) ->
      let vs = Option.value (Hashtbl.find_opt by_kind k) ~default:[] in
      Hashtbl.replace by_kind k (v :: vs))
    jobs;
  let medians = Hashtbl.create 16 in
  Hashtbl.iter (fun k vs -> Hashtbl.replace medians k (median vs)) by_kind;
  Doc.quantile (List.map (fun (k, _) -> Hashtbl.find medians k) jobs) q

let percentiles jobs =
  [ ("latency_p50_s", mix_quantile jobs 0.5);
    ("latency_p90_s", mix_quantile jobs 0.9) ]

let rss_self () = Option.value (Host.peak_rss_mib "self") ~default:nan

(* counters/gauges accumulated across several traced rounds *)
let add_into tbl kvs =
  List.iter
    (fun (k, v) ->
      Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.0))
    kvs

let sorted tbl =
  Hashtbl.fold (fun k v a -> (k, v) :: a) tbl [] |> List.sort compare
