(** DC sensitivity and DC match analysis.

    This is the classical ".SENS" / Spectre "dcmatch" pair the paper
    extends (its refs [8],[9]): the adjoint system [Gᵀλ = e_out] gives
    the sensitivity of one output to {e every} device parameter in a
    single extra solve, and the mismatch variances combine by
    root-sum-square (paper eq. (1)–(2)). *)

type contribution = {
  param : Circuit.mismatch_param;
  sensitivity : float; (** ∂V_out/∂δ at the operating point *)
  variance_share : float; (** (S_i·σ_i)² *)
}

type report = {
  output : string;
  sigma : float; (** std dev of the output voltage *)
  contributions : contribution array; (** sorted, largest share first *)
}

val sensitivities :
  ?x_op:Vec.t -> Circuit.t -> output:string ->
  (Circuit.mismatch_param * float) array
(** DC sensitivity of a named node voltage to every mismatch parameter
    (adjoint method: one LU solve total).

    Multi-stable circuits (SRAM cells, latches, bandgaps with their
    all-off state): pass [x_op] explicitly — the default cold-started
    solve may land in a different equilibrium than the one whose
    variation you mean to measure, silently producing sensitivities of
    the wrong state. *)

val dc_match :
  ?x_op:Vec.t -> Circuit.t -> output:string ->
  report
(** The DC match analysis: σ²(V_out) = Σ (S_i σ_i)². *)

val pp_report : Format.formatter -> report -> unit
