(** Engine telemetry: hierarchical timed spans, monotonic counters,
    gauges and log-linear histograms, with structured-JSON metrics,
    Chrome trace-event and Prometheus text exports — plus the
    cross-process merge hooks the sweep supervisor uses to fold worker
    telemetry into one fleet-wide snapshot (docs/observability.md).

    Design constraints:

    - The disabled path is a few branch instructions: every primitive
      starts with [if not (enabled ()) then ...] and performs no
      allocation, takes no lock, and reads no clock when telemetry is
      off.  Analyses therefore stay bit-identical and within noise of
      their untelemetered wall time.
    - Telemetry never feeds back into the numerics: primitives only
      record, so results are bit-identical with telemetry on or off.
    - Spans are per-domain (via [Domain.DLS]); counters, gauges,
      histograms and trace events are global and lock-protected, and
      the enabled flag is an atomic, so recording from {!Domain_pool}
      worker lanes (or any spawned domain) is race-free.

    Naming convention: dotted lowercase ["subsystem.what"], e.g.
    ["newton.iterations"], ["serve.request.seconds"],
    ["pool.lane0.items"]. *)

exception Misuse of string
(** Raised (only when {!debug} is set) on span misuse: ending a span
    when none is open, ending a span whose name does not match the
    innermost open span, or opening a second {!root} span. *)

val debug : bool ref
(** When true, span misuse raises {!Misuse}; when false (default),
    misuse is ignored so a release build can never corrupt the tree. *)

val enabled : unit -> bool
val enable : ?timeline:bool -> unit -> unit
(** Reset all recorded state and start recording.  The calling domain
    becomes the owner of the exported span tree.  [timeline] (default
    true) keeps every span and lane slice for {!trace_json}; without
    it spans still aggregate into the tree, counters and histograms,
    but the trace carries tracks and no slices — for a long-lived
    process that never exports a trace, whose slices would otherwise
    grow without bound. *)

val disable : unit -> unit
(** Stop recording.  Already-recorded state stays exportable. *)

val reset : unit -> unit
(** Drop all recorded spans, counters, gauges, histograms, remote
    merges and trace events. *)

val now : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]); exposed for callers that
    time a region themselves and report it via {!lane_slice}. *)

val epoch : unit -> float
(** The absolute wall-clock time of the last {!enable}/{!reset} — the
    zero of every trace timestamp.  Shipped on the telemetry wire so a
    supervisor can rebase a worker's trace events onto its own
    timeline. *)

(** {1 Spans} *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a timed span.  Children with the same
    name under the same parent are merged (call count + total wall
    time), so per-step spans stay bounded in the export.  Exception
    safe: the span closes when [f] raises. *)

val root : string -> (unit -> 'a) -> 'a
(** Like {!span} but marks the span as the analysis root.  Opening a
    second root (nested or concurrent) raises {!Misuse} in debug and
    degrades to a plain span otherwise. *)

val span_begin : string -> unit
val span_end : string -> unit
(** Explicit span bracket for callers that cannot use the combinator.
    [span_end name] must match the innermost open span; see {!Misuse}. *)

(** {1 Counters, gauges and histograms} *)

val count : string -> int -> unit
(** [count name n] adds [n] to the monotonic counter [name]. *)

val gauge : string -> float -> unit
(** [gauge name v] records the latest value of [name].

    Ordering guarantee: the gauge store is atomic — every write takes
    the internal telemetry lock, so "last write wins" means {e last in
    the lock-acquisition order}, which contains each writing domain's
    program order.  A {!gauges} snapshot is taken under the same lock
    and therefore observes a consistent cut: it never interleaves
    halves of two writes and never misses a write that
    happened-before the snapshot on the same domain.  Which of two
    {e concurrent} writers from different lanes wins is scheduling
    dependent, as for any last-write-wins cell. *)

val counter_value : string -> int
(** Current value, 0 when never written. *)

val observe : string -> float -> unit
(** [observe name v] records [v] into the log-linear histogram [name]
    (created on first use) — for latencies (seconds) and sizes.  See
    {!Histogram}. *)

val histograms : unit -> (string * Histogram.t) list
(** Snapshot of all histograms, sorted by name.  The returned
    histograms are private copies — safe to read while lanes keep
    recording. *)

val quantile : string -> float -> float option
(** [quantile name q] — the [q]-quantile estimate of histogram [name];
    [None] when the histogram does not exist or is empty. *)

(** {1 Domain-pool lane hooks} *)

val announce_lanes : int -> unit
(** Register trace tracks ["lane 0"] .. ["lane n-1"] eagerly, so every
    pool lane has a track even when a run is too small for a lane to
    claim any work.  Called by [Domain_pool.create]. *)

val lane_slice : lane:int -> name:string -> t0:float -> t1:float -> unit
(** Record a trace slice on the per-lane track ["lane <k>"] — one per
    lane per pool job, so lane imbalance is visible in the trace. *)

val lane_items : lane:int -> int -> unit
(** Add to the per-lane work counter ["pool.lane<k>.items"]. *)

(** {1 Cross-process merge (the fleet hooks)} *)

val merge_counters : (string * int) list -> unit
(** Add each remote counter into the local one of the same name. *)

val merge_gauges : (string * float) list -> unit
(** Last-write-wins application of remote gauges. *)

val merge_histogram : string -> Histogram.t -> unit
(** Fold a remote histogram into the local one of the same name
    (created as needed) — {!Histogram.merge_into}, so lossless. *)

type span_tree = {
  span_name : string;
  calls : int;  (** completed activations merged into this node *)
  wall_s : float;  (** total wall seconds across those activations *)
  children : span_tree list;  (** in first-opened order *)
}

val merge_span_tree : span_tree -> unit
(** Merge a remote process' span tree into the fleet snapshot:
    same-name nodes aggregate (calls + wall seconds), recursively.  The
    merged trees are grafted under the owner's root span in
    {!metrics_json} and listed by {!remote_spans}. *)

val remote_spans : unit -> span_tree list
(** The merged remote trees, in first-merged order. *)

val extern_track : key:string -> name:string -> int
(** Allocate (or look up) a trace track for an external event source —
    one per sweep worker, keyed by the point's content hash so retries
    of the same point land on the same track and the id is stable
    across runs of the same spec.  The id is derived from [key]
    deterministically; an id collision between distinct keys is
    resolved by probing. *)

val extern_slice : tid:int -> name:string -> ts_abs:float -> dur_s:float -> unit
(** Record a complete trace slice on an external track.  [ts_abs] is
    absolute wall-clock seconds (the caller rebases the remote epoch);
    it is stored relative to the local {!epoch}. *)

(** {1 Process-level gauges} *)

val gc_gauges : unit -> unit
(** Refresh the ["gc.*"] gauges from [Gc.quick_stat]: heap and live
    words, minor/major collections, compactions.  Call before
    exporting when current runtime numbers matter (the serve [stats] /
    [metrics] ops do). *)

(** {1 Progress reporting} *)

val set_progress : (string -> [ `Begin | `End of float ] -> unit) option -> unit
(** Install a live phase callback, invoked on begin/end of spans at
    nesting depth <= 2 on the owner domain ([`End] carries the span's
    wall seconds).  [None] uninstalls. *)

val set_progress_all :
  (int -> string -> [ `Begin | `End of float ] -> unit) option -> unit
(** Like {!set_progress} but fires on {e every} domain, passing the
    recording domain's id first — for services (varsim serve) whose
    analysis work runs on non-owner lanes.  Independent of
    {!set_progress}; both may be installed. *)

(** {1 Snapshots and export} *)

val snapshot_spans : unit -> span_tree list
(** Completed top-level spans of the owner domain, in opening order.
    Spans still open are not included. *)

val snapshot_events : unit -> (string * float * float) list
(** Completed trace slices as [(name, ts_us, dur_us)] in chronological
    order, timestamps in microseconds relative to {!epoch} — the
    telemetry wire's event payload. *)

val counters : unit -> (string * int) list
(** All counters, sorted by name. *)

val gauges : unit -> (string * float) list

val metrics_json : unit -> string
(** Structured metrics: [{"root": <span tree>, "counters": {...},
    "gauges": {...}, "histograms": {...}}].  When exactly one top-level
    span was recorded (the normal {!root} case) it is promoted to
    ["root"] and any {!merge_span_tree} remote trees are grafted under
    it; otherwise a synthetic ["(session)"] node wraps everything.
    Histogram entries carry count/sum/min/max, p50/p90/p99 estimates
    and the raw bucket list. *)

val trace_json : unit -> string
(** Chrome trace-event JSON (load in [chrome://tracing] or Perfetto):
    one ["X"] event per completed span / pool-lane job slice / external
    slice, with thread-name metadata naming track 0 ["main"], each pool
    lane ["lane <k>"] and each external source by its registered
    name. *)

val prometheus : unit -> string
(** Prometheus text exposition (version 0.0.4) of every counter
    ([varsim_<name>_total]), gauge ([varsim_<name>]) and histogram
    ([varsim_<name>] with [_bucket]/[_sum]/[_count] series, cumulative
    [le] bounds from the log-linear layout plus ["+Inf"]).  Dots in
    metric names become underscores. *)

val write_metrics : string -> unit
val write_trace : string -> unit
(** Write the corresponding export to a file.  Both pass the
    ["obs.export"] {!Faultsim} site and degrade gracefully: an injected
    fault or a filesystem error is counted (["obs.export.errors"]) and
    warned about on stderr, never raised — telemetry loss must not
    fail an analysis (docs/robustness.md). *)
