(** Reusable domain pool for data-parallel loops (stdlib [Domain] only).

    A pool of [lanes] parallel lanes: the calling domain plus
    [lanes - 1] persistent worker domains parked between jobs.  Jobs are
    index ranges; lanes claim one index at a time from a shared atomic
    counter ("work-stealing lite"), so unevenly sized iterations balance
    without spawning a domain per task.  The pool runs independent units
    of work — Monte Carlo samples, sweep points — never the steps of one
    LPTV/PNOISE pass (docs/parallelism.md).

    Determinism: the pool only decides {e which lane} runs each index,
    never the arithmetic performed for it.  Bodies that write
    exclusively to per-index slots (and read only shared immutable
    state) therefore produce bit-identical results for any lane count.

    A pool is not reentrant: publishing a job from inside a job body
    deadlocks.  Nested parallelism must use separate pools. *)

type t

val create : int -> t
(** [create lanes] spawns [lanes - 1] worker domains ([lanes >= 1];
    [create 1] spawns none and runs every job inline). *)

val size : t -> int
(** Number of lanes, including the caller. *)

val shutdown : t -> unit
(** Park, join and release the worker domains.  Every pool must be shut
    down before the program exits (prefer {!with_pool}). *)

val with_pool : int -> (t -> 'a) -> 'a
(** [with_pool lanes f] runs [f] with a fresh pool and always shuts it
    down, including on exceptions. *)

val parallel_for :
  t -> ?label:string -> ?should_stop:(unit -> bool) -> int ->
  (int -> unit) -> unit
(** [parallel_for pool n body] runs [body i] for [i] in [0, n), spread
    over the pool's lanes one index per claim; returns when all indices
    have completed.  If any [body] raises, the first exception is
    re-raised in the caller after the range drains; remaining indices
    may or may not have run.  [label] (default ["pool.job"]) names the
    per-lane telemetry slices this job emits when {!Obs.enabled};
    telemetry never changes scheduling or results.

    [should_stop] is polled by every lane before each claim (default
    constant [false]): once it returns true, remaining indices are
    abandoned and the call returns normally — the cooperative
    cancellation hook budgets propagate through (the caller is expected
    to notice the expiry itself). *)

val default_lanes : unit -> int
(** [Domain.recommended_domain_count ()]. *)
