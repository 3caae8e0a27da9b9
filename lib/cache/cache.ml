(* The content-addressed result cache: an in-memory LRU in front of an
   optional on-disk store.  Keys are job fingerprints with a "|result"
   suffix; payloads are the rendered analysis output.  docs/serving.md
   documents keys, eviction and provenance. *)

type t = {
  results : string Lru.t;
  disk : Cache_store.t option;
  meta : string;
}

let create ?(mem_capacity = 32) ?dir ?(meta = "") () =
  let mk disk =
    Ok { results = Lru.create ~capacity:mem_capacity "result"; disk; meta }
  in
  match dir with
  | None -> mk None
  | Some d -> (
    match Cache_store.open_dir d with
    | Ok store -> mk (Some store)
    | Error _ as e -> e)

let meta t = t.meta
let has_disk t = t.disk <> None

let find_result t key =
  match Lru.find t.results key with
  | Some _ as hit -> hit
  | None -> (
    match t.disk with
    | None -> None
    | Some store -> (
      match Cache_store.get store ~key with
      | Some payload as hit ->
        Lru.put t.results key payload;
        hit
      | None -> None))

let put_result t key payload =
  Lru.put t.results key payload;
  match t.disk with
  | None -> ()
  | Some store -> Cache_store.put store ~key ~meta:t.meta payload
