(* Index-range fan-out over lanes started per call (stdlib only).

   Every lane — the caller as lane 0 and each lane [spawn] started —
   claims indices one at a time from one shared atomic counter until the
   range is drained, so uneven per-index cost balances automatically
   without a lane per index.  Lanes live for one call: [run] joins every
   lane it started before it returns or raises, so none outlives it and
   a nested [run] simply starts its own. *)

let domain f =
  let d = Domain.spawn f in
  fun () -> Domain.join d

let no_stop () = false

let run ~spawn ~lanes ?(label = "pool.job") ?(should_stop = no_stop) n body =
  if lanes < 1 then invalid_arg "Lanes.run";
  let next = Atomic.make 0 and failure = Atomic.make None in
  let fail e = ignore (Atomic.compare_and_set failure None (Some e)) in
  (* Claim and run indices until the range drains.  A lane whose body
     raises records the failure and stops claiming; the other lanes
     drain the rest.  When telemetry is enabled each lane that claimed
     work reports one trace slice on its own track plus its
     claimed-index count, which is how lane imbalance becomes visible
     (docs/observability.md). *)
  let lane k () =
    let items = ref 0 in
    let t0 = if Obs.enabled () then Obs.now () else 0.0 in
    let rec claim () =
      if not (should_stop ()) then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          incr items;
          body i;
          claim ()
        end
      end
    in
    (try claim () with e -> fail e);
    if Obs.enabled () && !items > 0 then begin
      Obs.lane_slice ~lane:k ~name:label ~t0 ~t1:(Obs.now ());
      Obs.lane_items ~lane:k !items
    end
  in
  (* every lane gets a trace track up front; a run too small for a lane
     to claim an index still shows the idle lane *)
  Obs.announce_lanes lanes;
  (* a spawn that fails starts no further lanes; the caller still runs
     its own lane, so the lanes already started are joined as usual *)
  let joins = ref [] in
  (try
     for k = 1 to min lanes n - 1 do
       joins := spawn (lane k) :: !joins
     done
   with e -> fail e);
  lane 0 ();
  List.iter (fun join -> join ()) !joins;
  Option.iter raise (Atomic.get failure)
