(* Work-stealing-lite pool over OCaml 5 domains (stdlib only).

   One pool owns [lanes - 1] worker domains parked on a condition
   variable.  A job is an index range [0, n) plus a body; every lane
   (workers and the publishing caller alike) claims indices one at a
   time from a shared atomic counter until the range is drained, so
   uneven per-index cost balances automatically without per-task
   spawns.

   Each job carries its own atomic counter: a worker that wakes up late
   and still holds a reference to a finished job drains that job's
   (exhausted) counter and parks again — it can never claim indices of
   a job published afterwards. *)

type job = {
  body : int -> unit;
  next : int Atomic.t;
  hi : int;
  label : string; (* telemetry name for the per-lane trace slices *)
  should_stop : unit -> bool;
      (* cooperative cancellation (e.g. a budget deadline): polled
         before each claim on every lane; remaining indices are
         abandoned once it turns true *)
}

type t = {
  lanes : int;
  mutex : Mutex.t;
  work : Condition.t; (* new job published, or stop *)
  idle : Condition.t; (* a lane finished its share of the current job *)
  mutable job : job option;
  mutable gen : int;
  mutable running : int;
  mutable stop : bool;
  mutable failure : exn option;
  mutable workers : unit Domain.t list;
}

let record_failure t e =
  Mutex.lock t.mutex;
  (match t.failure with None -> t.failure <- Some e | Some _ -> ());
  Mutex.unlock t.mutex

(* Claim and run indices until the job is drained.  On an exception the
   lane stops claiming (the failure is re-raised by the publisher);
   other lanes drain the remaining indices.

   [lane] is the caller-relative lane index (publisher = 0, workers
   1..lanes-1); when telemetry is enabled each lane reports one trace
   slice per job on its own track plus its claimed-index count, which
   is how lane imbalance becomes visible (docs/observability.md). *)
let drain t ~lane (job : job) =
  let live = ref true in
  let items = ref 0 in
  let t0 = if Obs.enabled () then Obs.now () else 0.0 in
  while !live do
    if job.should_stop () then live := false
    else
    let i = Atomic.fetch_and_add job.next 1 in
    if i >= job.hi then live := false
    else begin
      incr items;
      try job.body i
      with e ->
        record_failure t e;
        live := false
    end
  done;
  if Obs.enabled () && !items > 0 then begin
    Obs.lane_slice ~lane ~name:job.label ~t0 ~t1:(Obs.now ());
    Obs.lane_items ~lane !items
  end

let worker t ~lane =
  let my_gen = ref 0 in
  let live = ref true in
  while !live do
    Mutex.lock t.mutex;
    while (not t.stop) && t.gen = !my_gen do
      Condition.wait t.work t.mutex
    done;
    if t.stop then begin
      Mutex.unlock t.mutex;
      live := false
    end
    else begin
      my_gen := t.gen;
      let job = t.job in
      t.running <- t.running + 1;
      Mutex.unlock t.mutex;
      (match job with Some j -> drain t ~lane j | None -> ());
      Mutex.lock t.mutex;
      t.running <- t.running - 1;
      if t.running = 0 then Condition.broadcast t.idle;
      Mutex.unlock t.mutex
    end
  done

let create lanes =
  if lanes < 1 then invalid_arg "Domain_pool.create";
  let t =
    {
      lanes;
      mutex = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      job = None;
      gen = 0;
      running = 0;
      stop = false;
      failure = None;
      workers = [];
    }
  in
  t.workers <-
    List.init (lanes - 1) (fun i ->
        Domain.spawn (fun () -> worker t ~lane:(i + 1)));
  (* every lane gets a trace track up front; a run too small for a
     worker to claim an index still shows the idle lane *)
  Obs.announce_lanes lanes;
  t

let size t = t.lanes

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool lanes f =
  let t = create lanes in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let no_stop () = false

let parallel_for t ?(label = "pool.job") ?(should_stop = no_stop) n body =
  if n > 0 then begin
    if n = 1 || t.workers = [] then begin
      let t0 = if Obs.enabled () then Obs.now () else 0.0 in
      let i = ref 0 in
      while !i < n && not (should_stop ()) do
        body !i;
        incr i
      done;
      if Obs.enabled () then begin
        Obs.lane_slice ~lane:0 ~name:label ~t0 ~t1:(Obs.now ());
        Obs.lane_items ~lane:0 !i
      end
    end
    else begin
      let job = { body; next = Atomic.make 0; hi = n; label; should_stop } in
      Mutex.lock t.mutex;
      t.failure <- None;
      t.job <- Some job;
      t.gen <- t.gen + 1;
      Condition.broadcast t.work;
      Mutex.unlock t.mutex;
      drain t ~lane:0 job;
      Mutex.lock t.mutex;
      while t.running > 0 do
        Condition.wait t.idle t.mutex
      done;
      let failure = t.failure in
      t.failure <- None;
      t.job <- None;
      Mutex.unlock t.mutex;
      match failure with None -> () | Some e -> raise e
    end
  end

let default_lanes () = Domain.recommended_domain_count ()
