(** Small-signal AC analysis around a DC operating point.

    Solves [(G + jωC)·y = u] with [G] the Jacobian at the operating
    point.  Inputs are unit-amplitude phasors applied to a named source
    or an explicit sparse injection. *)

type input =
  | Vsource of string  (** unit AC voltage on a named V source *)
  | Isource of string  (** unit AC current on a named I source *)
  | Injection of (int * float) list
      (** explicit sparse right-hand side (rows of the MNA system) *)

type t
(** A prepared AC context (operating point + factorizable matrices). *)

val prepare : ?x_op:Vec.t -> Circuit.t -> t
(** Linearize at the given (or freshly solved) operating point.  The
    per-frequency solver follows {!Linsys.solver_for}: dense [Clu] for
    small circuits, sparse [Csplu] with one shared symbolic plan above
    {!Linsys.auto_threshold}. *)

val operating_point : t -> Vec.t

val solve : t -> freq:float -> input:input -> Cvec.t
(** Full small-signal solution vector at a frequency. *)

val transfer : t -> freq:float -> input:input -> output:string -> Cx.t
(** Voltage transfer to a named output node. *)

val output_impedance : t -> freq:float -> node:string -> Cx.t
(** Impedance seen at a node (unit current injection). *)

val adjoint : t -> freq:float -> output:string -> Cvec.t
(** λ with [(G + jωC)ᵀ λ = e_out]; [λᵀ·b] is then the transfer from any
    injection [b] — one solve serves every input. *)
