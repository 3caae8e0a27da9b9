(** [varsim serve] — a Unix-domain-socket job daemon around
    {!Spice_job.submit}, plus the client used by [varsim submit] and
    [varsim top] (docs/serving.md, docs/observability.md).

    Protocol: newline-delimited JSON, one request line in, event lines
    (optional) and exactly one response line out per request.  A
    request is [{"op":"run","deck":"...", ...}], [{"op":"stats"}] or
    [{"op":"metrics"}]; run responses reuse the sweep journal's field
    vocabulary ([outcome], [degraded], [elapsed_s]) plus the job
    outcome ([output], [fingerprint], [cache_hit], [provenance]).
    Every response carries the daemon-assigned monotonic request id
    ([req]), so client logs correlate with the daemon's event log.

    The [stats] response keeps its original fields ([version],
    [provenance], [cache], [metrics]) and adds [uptime_s], request
    counts by outcome ([requests.ok]/[failed]/[timed_out]), request
    latency and queue-wait quantiles ([latency_s]/[queue_s] with
    p50/p90/p99), [queue_depth], [lanes] and [lanes_busy].  The
    [metrics] response carries the whole {!Obs.prometheus} page as one
    JSON string ([text]).

    With [log_path] set, the daemon appends one JSON record per
    finished run request — [ts], [req], [id], [outcome], [queue_s],
    [elapsed_s], [fingerprint], [cache_hit] — atomically (single
    [O_APPEND] write under a mutex).  Log failures pass the
    ["serve.log.write"] fault site and degrade to a counted warning:
    they never fail the request.

    Scheduling is fair round-robin across client connections over
    [lanes] OCaml domains; each request may carry its own wall budget.
    SIGTERM/SIGINT drain: stop accepting, finish everything queued,
    flush responses, unlink the socket, return. *)

type config = {
  socket_path : string;
  lanes : int;  (** concurrent job lanes (domains) *)
  cache : Cache.t option;  (** result cache the lanes share *)
  default_budget_s : float option;  (** per-request default wall budget *)
  log_path : string option;  (** JSON-lines event log (append) *)
  trace : bool;
      (** keep every span slice for a Chrome trace written after the
          drain; off, the daemon's memory stays flat however many
          requests it serves *)
}

val default_config :
  ?lanes:int -> ?cache:Cache.t -> ?default_budget_s:float ->
  ?log_path:string -> ?trace:bool -> string -> config
(** [default_config socket_path] — 2 lanes, no cache, no default
    budget, no event log, no trace slices. *)

val run : config -> unit
(** Bind, serve, block until a SIGTERM/SIGINT drain completes.  Raises
    [Failure] when the socket path is unusable (already served, or a
    non-socket file).  Enables {!Obs} so the [stats] and [metrics] ops
    always answer with live counters, histograms and GC gauges. *)

(** {1 Client side} *)

val request_json :
  ?id:string -> ?steps:int -> ?f_offset:float -> ?budget_s:float ->
  ?events:bool -> string -> string
(** [request_json deck_text] builds a one-line run request.  [events]
    asks the server to stream phase events while the job runs. *)

val stats_request : string
(** The one-line statistics request. *)

val metrics_request : string
(** The one-line Prometheus-exposition request; the response's [text]
    field holds the page. *)

val call :
  ?on_event:(Obs_json.t -> unit) -> socket_path:string -> string ->
  (string * Obs_json.t, string) result
(** [call ~socket_path line] sends one request line and reads until the
    response, feeding any event lines to [on_event]; returns the raw
    response line and its parsed form, or a human-readable error. *)
