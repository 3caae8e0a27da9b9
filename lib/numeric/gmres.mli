(** Restarted complex GMRES for matrix-free Krylov solves.

    Solves [A·x = b] given only the action [v ↦ A·v] — the engine's
    periodic boundary-value operators ([I − Φ] in the shooting Newton,
    [I − Φ(ω)] in the LPTV wrap) are products of per-step inverses and
    must never be formed densely (docs/solver.md, "Matrix-free
    shooting").

    The caller provides a {!ws} workspace holding the Krylov basis, the
    Hessenberg columns and the Givens-rotation state, in the style of
    the [solve_into] kernels; a solve allocates nothing proportional to
    the dimension, only O(restart) boxed scalars per Arnoldi step.
    The least-squares problem is solved incrementally by Givens
    rotations, so the residual norm is available at every iteration for
    free.

    Right preconditioning is pluggable: with [~precond], GMRES solves
    [A·M⁻¹·u = b] and returns [x = M⁻¹·u]; the reported residual stays
    the true residual of [A·x = b].

    Counters (docs/observability.md): ["gmres.iterations"],
    ["gmres.restarts"], ["gmres.stagnations"]. *)

type ws

val default_restart : int
(** The restart length the engines pass to {!make_ws} (30) — reported
    by [varsim version] as a default knob. *)

val make_ws : n:int -> restart:int -> ws
(** Workspace for systems of dimension [n] with restart length
    [min restart n] ([restart >= 1]).  Reusable across solves of the
    same dimension, but never concurrently from two domains. *)

val ws_dim : ws -> int
val ws_restart : ws -> int

type stats = {
  converged : bool;  (** residual reached [tol·‖b‖] *)
  iterations : int;  (** total Arnoldi steps across all cycles *)
  restarts : int;    (** restart cycles beyond the first *)
  residual : float;  (** final relative residual ‖b − A·x‖/‖b‖ *)
}

val solve :
  ?tol:float -> ?max_restarts:int -> ?precond:(Cvec.t -> unit) ->
  apply:(Cvec.t -> Cvec.t -> unit) -> ws -> b:Cvec.t -> x:Cvec.t -> stats
(** [solve ~apply ws ~b ~x] runs restarted GMRES on [A·x = b] where
    [apply v dst] stores [A·v] in [dst] ([dst] never aliases [v]).  [x]
    carries the initial guess in and the best iterate out — on
    stagnation it still holds the iterate with the smallest residual
    seen, so a fallback path can refine rather than restart from zero.

    [tol] (default 1e-12) is relative to [‖b‖] ([b = 0] returns [x = 0]
    immediately).  [max_restarts] (default 8) bounds the restart cycles;
    the solve also reports [converged = false] early when a full cycle
    reduces the residual by less than 10% — the stagnation signal the
    engines' dense-fallback rungs key on.  [precond] applies [M⁻¹]
    in place. *)
