(** Brute-force transient noise analysis — the expensive alternative of
    the paper's Fig. 5(a).

    Each backward-Euler step injects an independent Gaussian current
    sample into every physical noise source, with per-step variance
    [PSD/(2·dt)] (the white-noise discretization), re-evaluating the
    bias-dependent PSDs along the trajectory.  This resolves the full
    nonlinear noise response but must ride out every settling transient,
    which is exactly the cost the LPTV analysis avoids. *)

val run :
  ?seed:int -> ?temp:float -> ?options:Tran.options -> ?x0:Vec.t ->
  Circuit.t -> tstart:float ->
  tstop:float -> dt:float -> unit -> Waveform.t
(** One noisy transient trajectory. *)

val node_stationary_variance :
  ?seed:int -> ?temp:float -> Circuit.t -> node:string -> tstop:float ->
  dt:float -> settle:float -> float
(** Time-average variance of a node after [settle] (for stationary
    circuits) — e.g. the kT/C variance of an RC network. *)
