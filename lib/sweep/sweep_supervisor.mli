(** The sweep parent: scheduling, supervision, retries, journal,
    artifacts (docs/robustness.md, "Sweeps and supervision").

    The headline property is {e survival}: one bad point — a crash, a
    hang, an OOM kill, a typed analysis failure — costs at most that
    point's bounded retries, never the run.  [jobs] lanes each claim
    the next pending point and own it until it has a terminal outcome:
    one attempt under the chosen isolation, the single retry rule
    ({!retry_loop}), then the journal.  Process isolation (default for
    the PSS-heavy analyses) runs every attempt in a supervised child
    (the hidden [varsim worker] mode, result returned as one JSON line
    over a pipe) whose lane enforces the per-point wall deadline by
    SIGTERM-then-SIGKILL; domain isolation computes cheap points
    in-process.  Both isolations run their lanes through one
    {!Lanes.run} call: process lanes are systhreads that wait on their
    child, domain lanes are domains.  Every completed point is
    appended (fsynced) to [<prefix>.journal] before it counts, so
    [kill -9] of the parent at any instant loses at most the points in
    flight; a re-run with [resume = true] skips journaled points and
    converges to a final CSV/JSON artifact bit-identical to an
    uninterrupted run's. *)

type isolation =
  | Process  (** fork/exec of the own binary per point *)
  | Domains  (** in-process domain lanes (no crash isolation) *)
  | Auto_iso  (** [Domains] for direct DC analyses, [Process] otherwise *)

val isolation_of_string : string -> isolation option
val isolation_to_string : isolation -> string

type config = {
  spec_path : string;  (** the spec file workers re-read *)
  out_prefix : string;  (** artifacts: [<prefix>.csv], [.json], [.journal] *)
  isolation : isolation;
  jobs : int;  (** concurrent lanes, at least 1 *)
  resume : bool;  (** skip points already in the journal *)
  budget : Budget.t option;  (** global budget; expiry yields a partial run *)
  progress : bool;  (** per-point progress lines on stderr *)
}

type summary = {
  total : int;
  skipped : int;  (** journaled points reused by [resume] *)
  ok : int;
  degraded : int;
  timed_out : int;
  crashed : int;
  failed : int;
  retries : int;  (** extra attempts consumed across all points *)
  partial : bool;  (** global budget expired before the grid completed *)
}

val run : config -> Sweep_spec.t -> (summary, string) result
(** Run (or resume) the sweep and write the artifacts.  [Error] is
    reserved for setup problems (unwritable journal/artifacts); per-point
    failures are data, not errors. *)

val csv_path : string -> string
val json_path : string -> string
val journal_path : string -> string

val pp_summary : Format.formatter -> summary -> unit

(** {1 The retry rule (exposed for tests)} *)

(** The verdict of one attempt at a point. *)
type verdict =
  | Final of Sweep_journal.entry
      (** a reading or a typed analysis failure: a deterministic fact
          about the point, recorded as is *)
  | Transient of Sweep_journal.entry
      (** a crash, a hang or a spawn fault: retried while attempts
          remain, else recorded as this entry *)
  | Aborted
      (** the global budget cut the point short — its attempt was
          killed, or a retry fell due after expiry: nothing is
          recorded, so a resumed run re-runs the point *)

val retry_loop :
  max_retries:int -> backoff_s:float -> expired:(unit -> bool) ->
  before_retry:(Sweep_journal.entry -> float -> unit) ->
  (unit -> verdict) -> verdict
(** [retry_loop ~max_retries ~backoff_s ~expired ~before_retry attempt]
    is every point's attempt loop, under both isolations.  A
    [Transient] verdict of attempt [k] is retried while
    [k <= max_retries]: [before_retry e d] runs first with that
    attempt's entry and [d], the geometric {!Retry} backoff of attempt
    [k] from base [backoff_s] (the supervisor reports, then sleeps
    [d]).  Once [expired ()] holds, nothing is retried: the point is
    [Aborted].  The returned entry carries the attempts consumed.  The
    loop is deterministic, so same policy + same verdicts ⇒ the same
    timeline. *)
