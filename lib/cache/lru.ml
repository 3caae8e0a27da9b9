(* Mutex-protected LRU map, string keys.

   Recency is tracked with a monotonically increasing stamp per entry;
   eviction scans for the minimum stamp.  Capacities here are small
   (tens of plans / results), so the O(capacity) eviction scan is
   cheaper than maintaining an intrusive list and keeps the code
   obviously correct under concurrent lanes. *)

type 'a entry = { value : 'a; mutable stamp : int }

type 'a t = {
  name : string; (* counter prefix: cache.<name>.{hits,misses,evictions} *)
  capacity : int;
  table : (string, 'a entry) Hashtbl.t;
  mutable clock : int;
  mutex : Mutex.t;
}

let create ?(capacity = 64) name =
  {
    name;
    capacity = Stdlib.max 0 capacity;
    table = Hashtbl.create 32;
    clock = 0;
    mutex = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let counter t what = "cache." ^ t.name ^ "." ^ what

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some e ->
        e.stamp <- tick t;
        Obs.count (counter t "hits") 1;
        Some e.value
      | None ->
        Obs.count (counter t "misses") 1;
        None)

let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun key e ->
      match !victim with
      | Some (_, stamp) when stamp <= e.stamp -> ()
      | _ -> victim := Some (key, e.stamp))
    t.table;
  match !victim with
  | Some (key, _) ->
    Hashtbl.remove t.table key;
    Obs.count (counter t "evictions") 1
  | None -> ()

let put t key value =
  locked t (fun () ->
      if t.capacity > 0 then begin
        (match Hashtbl.find_opt t.table key with
         | Some _ -> Hashtbl.remove t.table key
         | None ->
           if Hashtbl.length t.table >= t.capacity then evict_lru t);
        Hashtbl.add t.table key { value; stamp = tick t }
      end)

let length t = locked t (fun () -> Hashtbl.length t.table)
