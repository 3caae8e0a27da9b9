(** Declarative sweep specifications and their grid expansion.

    A sweep spec names one analysis target (a netlist deck or a
    built-in cell), one scalar reading to take per point, and a list of
    {e axes} — named parameter lists whose cartesian product is the
    point grid (docs/robustness.md, "Sweeps and supervision").

    Spec files are line-oriented:

    {v
    # offset sigma of the mirror vs width and supply
    cell = mirror
    analysis = dcmatch
    output = out
    sweep w   = 1u, 2u, 4u, 8u
    sweep vdd = 1.1, 1.2
    max-retries = 2
    v}

    Axis values are comma lists of SPICE-suffixed numbers; [lo:hi:n]
    expands to a linear ramp of [n] values.  Engine axes ([steps],
    [period]) apply to any target; every other axis name must be a
    parameter of the built-in cell being swept (deck elements carry no
    override hooks).  The linear solver is not a spec key: it follows
    the circuit size ({!Linsys.solver_for}).

    Expansion is deterministic: points are numbered row-major in axis
    declaration order, and {!point_hash} is a content hash of the
    target, the reading, the engine knobs and the point's parameter
    assignment — the resume key of the sweep journal. *)

type axis = { axis_name : string; values : float list }

type target =
  | Deck of string  (** netlist path *)
  | Cell of string  (** ["mirror"], ["comparator"] or ["ringosc"] *)

type analysis =
  | Op  (** DC solve; the metric is [v(output)] *)
  | Dc_match  (** adjoint DC mismatch; the metric is sigma *)
  | Mismatch  (** PSS + LPTV baseband sigma (needs [period]) *)
  | Freq  (** oscillator frequency sigma (cell [ringosc] only) *)

type t = {
  target : target;
  analysis : analysis;
  output : string;  (** node read by the metric (anchor for [Freq]) *)
  period : float option;  (** PSS fundamental for [Mismatch] *)
  steps : int option;  (** PSS grid steps override *)
  axes : axis list;  (** declaration order; empty = one nominal point *)
  point_budget_s : float option;  (** per-point wall budget *)
  max_retries : int;  (** supervisor re-attempts per point (default 2) *)
  retry_backoff_s : float;  (** base of the geometric backoff (default 0.1) *)
}

type point = {
  id : int;  (** row-major index in the grid *)
  assigns : (string * float) list;  (** one binding per axis, axis order *)
}

val parse : string -> (t, string) result
(** Parse a spec from its file text.  Errors are ["line N: ..."]
    one-liners covering unknown keys, malformed values, missing
    [deck]/[cell] or [output], unknown cell names, axes that name no
    parameter of the target, and [Mismatch] without a resolvable
    period. *)

val load_file : string -> (t, string) result

val expand : t -> point array
(** The full grid, row-major over [axes] in declaration order (last
    axis fastest); a spec with no axes yields one point with no
    assignments. *)

val value_to_string : float -> string
(** Deterministic round-trip formatting ([%.17g] for numbers) — the
    form used in hashes, CSV cells and the worker protocol. *)

val point_hash : t -> point -> string
(** Content hash (hex digest) of target + analysis + output + engine
    knobs + the point's assignment, built on the canonical
    {!Fingerprint} accumulator shared with the job pipeline (scheme
    ["phv3"]).  Deck targets hash by elaborated content (memoized per
    path), so editing a deck invalidates journal entries instead of
    resuming over stale results.  Budgets and retry policy are
    deliberately excluded: re-running with a different budget must
    still recognize journaled points.  Journals written by an older
    scheme are treated as cold (docs/robustness.md). *)

val cell_param_names : string -> string list
(** Sweepable parameter names of a built-in cell ([invalid_arg] on an
    unknown cell). *)

val engine_axis_names : string list
(** [["steps"; "period"]] — axes honored by every target. *)
