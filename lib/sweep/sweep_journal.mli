(** Durable append-only journal of completed sweep points.

    One line of JSON per completed point, keyed by the point's content
    hash ({!Sweep_spec.point_hash}); every append is [write(2)]-then-
    [fsync(2)], so a point that has been {e acked} (append returned)
    survives [kill -9] of the supervisor.  Reloading tolerates a
    truncated trailing line — the one partial write a crash mid-append
    can leave — by dropping it; acked lines are never dropped
    (docs/robustness.md, "Sweeps and supervision").

    The handle serializes appends internally, so the supervisor's
    lanes (threads or domains) share one journal. *)

type entry = {
  hash : string;  (** resume key: {!Sweep_spec.point_hash} *)
  id : int;  (** grid index, for human cross-reference only *)
  outcome : string;
      (** ["ok"], ["degraded"], ["timed_out"], ["crashed:SIGKILL"],
          ["failed:<reason>"], ["skipped"] *)
  metric : string;  (** what [value] measures, e.g. ["sigma"] *)
  value : float option;  (** the point's scalar reading, when it has one *)
  degraded : int;
      (** sparse→dense degradations + krylov fallbacks in that point *)
  attempts : int;  (** attempts consumed, including the successful one *)
  elapsed_s : float;
}

type t

val open_append : string -> t
(** Open (creating if missing) for appending. *)

val append : t -> entry -> unit
(** Serialize [entry] as one JSON line, write it and fsync.  The
    ["sweep.journal.write"] {!Faultsim} site fires first; an injected
    [Exn] (or a real write error) raises. *)

val close : t -> unit

val load : string -> entry list
(** All complete entries, in append order; a missing file is [[]].  A
    truncated or malformed trailing line is dropped; a malformed line
    in the middle of the file (torn journal) stops the load at the last
    good prefix. *)

val entry_to_json : entry -> string
(** Single-line JSON encoding (no trailing newline). *)

val entry_of_json : string -> entry option
(** Inverse of {!entry_to_json}; [None] on any malformed input. *)
