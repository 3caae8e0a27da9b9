(** Data-parallel index loops over lanes started per call (stdlib only).

    [run] spreads the indices [0, n) over [lanes] parallel lanes: the
    calling thread plus up to [lanes - 1] lanes it starts through a
    [spawn] function, all joined before [run] returns.  Lanes claim one
    index at a time from a shared atomic counter ("work-stealing
    lite"), so unevenly sized iterations balance without starting a
    lane per index.  The lanes run independent units of work — Monte
    Carlo samples, sweep points — never the steps of one LPTV/PNOISE
    pass (docs/parallelism.md).

    Determinism: [run] only decides {e which lane} runs each index,
    never the arithmetic performed for it.  Bodies that write
    exclusively to per-index slots (and read only shared immutable
    state) therefore produce bit-identical results for any lane count.

    Nothing outlives a call, so a body may itself call [run]: the
    nested call starts and joins its own lanes. *)

val domain : (unit -> unit) -> unit -> unit
(** [domain f] starts [f] on a new domain and returns its join — the
    spawner for lanes that compute.  OCaml 5.1 caps a process at 128
    domains. *)

val run :
  spawn:((unit -> unit) -> unit -> unit) -> lanes:int -> ?label:string ->
  ?should_stop:(unit -> bool) -> int -> (int -> unit) -> unit
(** [run ~spawn ~lanes n body] runs [body i] for [i] in [0, n), one
    index per claim, on lane 0 (the caller) and [min lanes n - 1] lanes
    started by [spawn f], which must start [f] and return its join
    ({!domain}, or a thread spawner for lanes that only wait).
    [lanes >= 1].

    Every started lane is joined before [run] returns or raises.  A
    lane whose body raises stops claiming; the other lanes drain the
    range, and the first exception is re-raised in the caller.  A
    [spawn] that raises starts no further lanes and is re-raised the
    same way, after the caller's lane and those already started have
    finished.

    [label] (default ["pool.job"]) names the per-lane telemetry slices
    when {!Obs.enabled}: each lane that claimed work records one slice
    on its ["lane <k>"] track and adds its count to
    ["pool.lane<k>.items"].  Telemetry never changes scheduling or
    results.

    [should_stop] is polled by every lane before each claim (default
    constant [false]): once it returns true, remaining indices are
    abandoned and the call returns normally — the cooperative
    cancellation hook budgets propagate through (the caller is expected
    to notice the expiry itself). *)
