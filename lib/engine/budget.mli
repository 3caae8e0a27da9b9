(** Cooperative wall-clock / iteration budgets with cancellation.

    Every analysis entry point ([Dc], [Tran], [Pss], [Pss_osc], [Lptv],
    [Pnoise], [Monte_carlo], [Analysis]) accepts an optional budget.
    The engines call {!check}/{!tick} at their natural loop points
    (Newton iterations, transient steps, shooting iterations, LPTV
    steps and PNOISE sources, lane claims), so a stuck deck stops
    within one loop body of the deadline and surfaces a structured
    {!Timed_out} instead of hanging the job.  {!Lanes.run} lanes
    observe the same budget through {!stop_opt}: expiry stops every
    lane from claiming further work.

    A budget is safe to share across domains (the mutable state is
    atomic); checks cost one clock read and a few loads, and a run with
    no budget pays only an option match. *)

type t

type info = {
  label : string;  (** what was being run, e.g. ["pnoise comparator.sp"] *)
  elapsed_s : float;  (** wall seconds consumed at expiry *)
  budget_s : float option;  (** the wall limit, when one was set *)
  iterations : int;  (** iterations ticked at expiry *)
  max_iterations : int option;
}

exception Timed_out of info

val make : ?wall_s:float -> ?max_iterations:int -> ?label:string -> unit -> t
(** A budget starting now.  [wall_s] limits wall-clock seconds,
    [max_iterations] limits {!tick}s; either may be omitted (a budget
    with neither only expires through {!cancel}). *)

val now : unit -> float
(** The budget clock: [Unix.gettimeofday] plus any
    {!Faultsim.clock_offset} skew (the ["budget.clock"] fault site
    fires on every read, so tests can skip the clock deterministically). *)

val elapsed_s : t -> float
val label : t -> string

val expired : t -> bool
(** True once cancelled, past the wall deadline, or over the iteration
    limit.  Never raises — the polling form used by pool lanes. *)

val check : t -> unit
(** Raise {!Timed_out} if {!expired}; also latches {!cancel} so every
    other lane sharing the budget stops claiming work.  The first
    expiry counts ["budget.timeouts"] when {!Obs.enabled}. *)

val tick : ?n:int -> t -> unit
(** Add [n] (default 1) iterations, then {!check}. *)

val cancel : t -> unit
(** Cooperative cancellation: mark expired; the next {!check} in any
    domain raises. *)

val cancelled : t -> bool
val info : t -> info

(** Option-threading helpers — engines hold a [t option]. *)

val check_opt : t option -> unit
val tick_opt : ?n:int -> t option -> unit

val stop_opt : t option -> (unit -> bool) option
(** [Some (fun () -> expired b)] — the [?should_stop] argument for
    {!Lanes.run}. *)
