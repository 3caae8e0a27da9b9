(** Minimal JSON reader for validating telemetry exports.

    Parses the JSON subset the telemetry writers emit (objects, arrays,
    strings with the common escapes, numbers, booleans, null) — enough
    for tests and smoke checks to assert well-formedness and pull
    fields out of {!Obs.metrics_json} / {!Obs.trace_json} without an
    external dependency. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Position-annotated description of the first syntax error. *)

val escape : string -> string
(** Escape a string for the inside of a JSON string literal: quote,
    backslash, [\n], [\r], [\t], and [\u00XX] for every other control
    character — the escapes {!parse} reads back.  The one escaper of
    every JSON writer in the tree (metrics and trace exports, telemetry
    wire lines, sweep journal entries, serve responses). *)

val add_quoted : Buffer.t -> string -> unit
(** Append [s] as a JSON string literal, quotes included. *)

val parse : string -> t
(** Parse a complete JSON document (trailing whitespace allowed,
    trailing garbage rejected).  Raises {!Parse_error}. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on missing field or non-object. *)

val to_list : t -> t list
(** The elements of a [List]; raises [Invalid_argument] otherwise. *)

val to_num : t -> float
val to_string : t -> string
