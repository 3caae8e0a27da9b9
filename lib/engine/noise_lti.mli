(** Stationary (time-invariant) small-signal noise analysis — SPICE
    ".NOISE".

    One adjoint solve per frequency gives the transfer from every noise
    source; the output PSD is the PSD-weighted sum of squared transfer
    magnitudes (paper eq. (3)). *)

type contribution = {
  source_name : string;
  transfer : Cx.t;  (** transfer function from the source to the output *)
  psd_at_output : float;
}

type point = {
  freq : float;
  total_psd : float; (** V²/Hz at the output *)
  contributions : contribution array;
}

val analyze :
  ?x_op:Vec.t -> ?temp:float -> Circuit.t ->
  output:string -> freqs:float array -> point array
(** Output noise PSD at each frequency, with the per-source breakdown
    (physical thermal noise of resistors and MOSFETs). *)

val analyze_sources :
  ?x_op:Vec.t -> Circuit.t -> output:string ->
  freq:float -> sources:(string * (int * float) list * float) list -> point
(** Same machinery for caller-supplied sources:
    [(name, injection, psd)] triples — the hook the pseudo-noise
    mismatch layer uses for LTI (DC-match-style) circuits. *)
