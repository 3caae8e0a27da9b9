(** One sweep point, start to finish — the code a supervised worker
    process (hidden [varsim worker] mode) and a domain-mode lane share.

    [run_point] builds the target (deck reload or built-in cell with
    the point's parameter overrides), runs the spec's analysis under a
    {!Resilient} net with an optional per-point budget, and returns the
    point's journal entry; it never raises on an analysis failure.
    [main] is the worker-process entry: it re-expands the grid from the
    spec file, cross-checks the content hash the supervisor passed (so
    a spec edited mid-run fails loudly instead of computing the wrong
    point), honors the ["sweep.worker.hang"] fault site, and prints the
    entry as one JSON line on stdout — the whole parent/child protocol
    (docs/robustness.md, "Sweeps and supervision"). *)

val run_point :
  ?budget_s:float -> hash:string -> Sweep_spec.t -> Sweep_spec.point ->
  Sweep_journal.entry
(** Run one point in-process and encode it as the entry both
    isolations exchange: outcome ["ok"], ["degraded"] (a completed
    reading that needed backend degradations), ["timed_out"] or
    ["failed:<reason>"] ({!Resilient.describe} of the typed failure),
    with [attempts = 1].  [hash] is the point's
    {!Sweep_spec.point_hash}.  Every point computes from scratch; only
    the process-global sparse plan cache carries over between points
    that share a process (docs/serving.md). *)

val main :
  ?crash:bool -> ?telemetry:bool -> spec_path:string -> index:int ->
  hash:string option -> budget_s:float option -> unit -> int
(** Worker-process body; returns the exit code (0 when a result line
    was produced — the supervisor trusts the JSON, not the code — and
    2 on protocol errors: unreadable spec, index out of range, hash
    mismatch).  [crash] (the supervisor's delivery of an armed
    ["sweep.worker.crash"] fault) SIGKILLs the process before it
    touches the point, so the injected death is deterministic.
    [telemetry] (the supervisor's relay of its own {!Obs.enabled}
    state) enables {!Obs} around the point and prints one
    {!Obs_wire.export_line} {e before} the result line, so the
    supervisor can merge the worker's spans, counters and histograms
    into the fleet snapshot. *)
