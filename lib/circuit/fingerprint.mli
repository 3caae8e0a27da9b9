(** Canonical content hashing for the job pipeline.

    A fingerprint accumulator collects typed fields into a canonical,
    unambiguous byte string (length-prefixed fields, [%.17g] floats)
    and digests it with MD5.  {!Circuit.fingerprint},
    [Spice_elab.fingerprint] and the sweep point hash are all built on
    this module, so "same content => same key" holds across the CLI,
    [varsim sweep] and [varsim serve] (docs/serving.md).

    The canonical forms are versioned: {!scheme_version} is baked into
    every accumulator, so changing any serialization invalidates old
    digests instead of silently colliding with them. *)

type t

val scheme_version : string
(** Version tag baked into every fingerprint ("fp2"). *)

val create : string -> t
(** [create kind] starts an accumulator tagged with the content kind
    (e.g. ["circuit"], ["job"]) — fingerprints of different kinds never
    collide even over identical fields. *)

val str : t -> string -> unit
val int : t -> int -> unit

val num : t -> float -> unit
(** Appended as [%.17g] — exact for any binary64, so numerically equal
    inputs fingerprint equal and nothing else does. *)

val field : t -> string -> string -> unit
(** [field t k v] appends a named field — the name is part of the
    canonical form. *)

val list : t -> (t -> 'a -> unit) -> 'a list -> unit
(** Length-prefixed sequence; element boundaries cannot be confused
    with adjacent fields. *)

val digest : t -> string
(** MD5 of the canonical bytes, as 32 lowercase hex characters. *)

val strings : string -> string list -> string
(** One-shot convenience: [strings kind fields]. *)
