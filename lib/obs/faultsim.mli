(** Deterministic fault injection for resilience testing.

    The engines are sprinkled with named {e sites} — points where a
    production failure could strike: a factorization that comes back
    singular, a residual evaluation that produces NaN, a loop body that
    dies, a wall clock that jumps.  When the harness is {e armed}
    with a schedule, [fire site] reports the fault (if any) due at the
    current visit of that site; when disarmed (the default, and the only
    state production code ever runs in) [fire] is a single atomic load
    and injects nothing.

    Faults are only ever armed through an explicit hook — the {!arm}
    API from tests, or {!arm_env} reading [VARSIM_FAULTS] when the CLI
    is started with that variable set.  Nothing arms the harness
    implicitly.

    Sites currently instrumented (docs/robustness.md):
    - ["newton.residual"] — [Nan] poisons the residual after an eval
    - ["newton.factorize"] — [Singular k] fails the step factorization
    - ["linsys.splu"] — [Singular k] forces the sparse plan+replay to
      fail, exercising the degrade-to-dense path
    - ["tran.step"] — [Exn] aborts one integration step
    - ["lptv.factor"], ["pnoise.transfer"] — [Exn] kills the LPTV
      step-factorization loop or the PNOISE source / σ(t) loop before
      one index
    - ["pss.gmres"], ["lptv.gmres"] — any fault makes that GMRES wrap
      solve report stagnation, exercising the bit-identical
      krylov→dense fallback rung
    - ["budget.clock"] — [Clock_skip s] advances the budget clock by
      [s] seconds on that visit
    - ["sweep.worker.spawn"] — [Exn] fails a sweep worker spawn in the
      supervisor; costs one of that point's attempts
    - ["sweep.worker.crash"] — any fault makes the supervisor spawn
      that worker doomed: it SIGKILLs itself before touching the
      point, exactly as if the child had died mid-point (parent-side
      visit counting, so visit [0] is a transient one retry absorbs)
    - ["sweep.worker.hang"] — any fault parks the worker process
      forever; the supervisor's per-point deadline must reap it
      (worker-side: every attempt of the point re-fires visit 0)
    - ["sweep.journal.write"] — [Exn] fails one journal append; the
      sweep warns and continues (the point is re-run on resume)
    - ["cache.read"], ["cache.write"] — [Exn] fails one on-disk cache
      store access; reads degrade to a miss, writes are swallowed, so
      a faulty cache only ever costs recomputation (docs/serving.md)
    - ["obs.export"] — [Exn] fails one telemetry file export
      ({!Obs.write_metrics} / {!Obs.write_trace}); the export warns on
      stderr and the analysis result is unaffected
    - ["serve.log.write"] — [Exn] fails one append to the daemon's
      JSON-lines event log; the request is served normally and the
      loss is counted (["serve.log.errors"]) *)

type fault =
  | Singular of int  (** behave as a singular factorization at row [k] *)
  | Nan  (** poison the value just computed with a NaN *)
  | Exn of string  (** raise {!Injected} with the message *)
  | Clock_skip of float  (** jump {!Budget.now} forward by seconds *)

type trigger = {
  site : string;
  visit : int;  (** 0-based visit index at which to fire; [-1] = every visit *)
  fault : fault;
}

exception Injected of string
(** The exception [Exn] faults raise at their site. *)

val enabled : unit -> bool

val arm : trigger list -> unit
(** Install a schedule and reset all visit counters.  Thread-safe, but
    arm/disarm from a single (test) domain while no analysis runs. *)

val disarm : unit -> unit
(** Drop the schedule and reset counters and the clock skew. *)

val fire : string -> fault option
(** Count one visit of [site]; return the fault due at this visit, if
    any.  [Clock_skip] faults additionally accumulate into
    {!clock_offset} as a side effect.  Disarmed: one atomic load, no
    lock, always [None]. *)

val check_exn : string -> unit
(** [fire] the site and raise {!Injected} if an [Exn] fault is due;
    other fault kinds at the site are ignored. *)

val armed_sites : unit -> string list
(** Distinct site names in the current schedule, sorted; [[]] when
    disarmed.  Lets the result cache refuse to serve or store bytes
    computed under engine-fault injection (a degraded run must never be
    replayed as if it were clean) while still exercising its own
    ["cache.*"] sites. *)

val visits : string -> int
(** Visits counted at a site since the last {!arm}/{!disarm} (0 when
    disarmed) — for tests. *)

val clock_offset : unit -> float
(** Accumulated [Clock_skip] seconds since the last {!arm}. *)

val parse_schedule : string -> (trigger list, string) result
(** Parse the [VARSIM_FAULTS] syntax: comma-separated
    [site:visit:kind[:arg]] with kinds [singular[:row]], [nan],
    [exn[:msg]] and [clockskip:seconds]; [visit] is an integer or [*]
    for every visit.  E.g.
    ["newton.factorize:0:singular:3,budget.clock:2:clockskip:1e9"].
    Syntax only — site names are checked by {!validate_sites}. *)

val known_sites : unit -> string list
(** Every instrumented site name, sorted — the vocabulary
    {!validate_sites} accepts. *)

val validate_sites : trigger list -> (unit, string) result
(** Reject any trigger naming a site outside {!known_sites}; the error
    lists the offending names and the full valid vocabulary, so a typo
    in a schedule fails fast instead of silently injecting nothing.
    ({!arm} itself stays unvalidated for tests that exercise synthetic
    sites.) *)

val arm_env : unit -> unit
(** Arm from [VARSIM_FAULTS] when set (the CLI's explicit hook); print
    a diagnostic to stderr and exit 2 on a malformed schedule or an
    unknown site name. *)
