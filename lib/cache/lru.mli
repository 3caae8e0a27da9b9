(** Bounded in-memory LRU map with string keys.

    Thread-safe (one mutex per cache); safe to share across
    {!Lanes} lanes and serve worker domains.  Every lookup counts
    into [cache.<name>.hits] / [cache.<name>.misses] and every eviction
    into [cache.<name>.evictions], so cache behavior is visible through
    [--metrics] with zero extra plumbing (docs/serving.md). *)

type 'a t

val create : ?capacity:int -> string -> 'a t
(** [create name] — [name] prefixes the telemetry counters.  Default
    capacity 64; capacity 0 disables the cache (every [find] misses,
    [put] is a no-op). *)

val find : 'a t -> string -> 'a option
(** Lookup; a hit refreshes the entry's recency. *)

val put : 'a t -> string -> 'a -> unit
(** Insert or replace; evicts the least-recently-used entry when at
    capacity. *)

val length : 'a t -> int
