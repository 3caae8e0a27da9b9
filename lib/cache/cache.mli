(** Content-addressed result cache: an in-memory {!Lru} in front of an
    optional durable {!Cache_store}.

    It holds the rendered analysis results of the job pipeline
    (docs/serving.md), keyed on job fingerprints.  A job either replays
    its stored bytes or computes from scratch.  Hits, misses and
    evictions surface as [cache.result.*] and [cache.disk.*] counters
    in [--metrics]. *)

type t

val create :
  ?mem_capacity:int -> ?dir:string -> ?meta:string -> unit ->
  (t, string) result
(** [create ()] is memory-only (capacity 32 entries); [dir] adds the
    durable store (created as needed — [Error] on an unusable path);
    [meta] is the provenance string stamped into every entry written to
    disk (see [Version.provenance]). *)

val meta : t -> string
val has_disk : t -> bool

val find_result : t -> string -> string option
(** Byte payload lookup: memory first, then the durable tier (a disk
    hit repopulates memory). *)

val put_result : t -> string -> string -> unit
