type solver = Dense | Sparse | Krylov

(* All seed circuits sit well below this (largest is 34 unknowns), so
   they keep the bit-exact dense path; above it the O(n³) factorizations
   and the O(n²·m) monodromy accumulation dominate, which sparse LU plus
   the matrix-free periodic wrap exist to kill. *)
let auto_threshold = 64

let solver_for n = if n >= auto_threshold then Krylov else Dense

(* process-wide count of krylov→dense fallbacks (GMRES stagnation),
   mirroring [degradation_total] so outcome records can surface both *)
let krylov_fallback_total = Atomic.make 0
let krylov_fallback_count () = Atomic.get krylov_fallback_total

let note_krylov_fallback () =
  Obs.count "linsys.krylov_fallback" 1;
  ignore (Atomic.fetch_and_add krylov_fallback_total 1 : int)

exception Singular_row of int

type repr =
  | Rdense of Mat.t
  | Rsparse of rsparse

and rsparse = {
  pat : Csr.t;
  mutable plan : Splu.plan option;
}

type rsys = {
  size : int;
  repr : repr;
  sink : Stamp.jac_sink;
  mutable degraded : bool;
      (* a sparse factorization persistently failed and the values were
         re-factorized densely at least once — surfaced in result
         records so the degradation is never silent *)
}

(* process-wide count of sparse→dense fallbacks, so outcome records can
   report degradations that happened anywhere below them *)
let degradation_total = Atomic.make 0
let degradation_count () = Atomic.get degradation_total
let degraded sys = sys.degraded

let make ?solver circuit =
  let n = Circuit.size circuit in
  match Option.value solver ~default:(solver_for n) with
  | Sparse | Krylov ->
    Obs.count "linsys.sys.sparse" 1;
    let pat = Stamp.pattern circuit in
    { size = n; repr = Rsparse { pat; plan = None };
      sink = Stamp.csr_sink pat; degraded = false }
  | Dense ->
    Obs.count "linsys.sys.dense" 1;
    let m = Mat.create n n in
    { size = n; repr = Rdense m; sink = Stamp.dense_sink m; degraded = false }

type rfact = Fdense of Lu.t | Fsparse of Splu.t

(* ------------------------------------------------------------------ *)
(* process-global plan cache (docs/serving.md)

   Keyed on the exact pattern AND the exact planning values (raw
   IEEE-754 bits), so a hit returns precisely the plan a fresh
   Splu.plan/Csplu.plan call would have computed: replayed pivots are
   identical, results are bit-identical, and the cache is observable
   only as fewer "symbolic.plan" increments.  Shared across analyses in
   one process — this is what lets a domain-isolated sweep (or the
   serve daemon) plan a shared circuit once instead of once per
   point. *)

let plan_cache : Splu.plan Lru.t = Lru.create ~capacity:64 "plan"
let cplan_cache : Csplu.plan Lru.t = Lru.create ~capacity:64 "plan"

let set_plan_cache_capacity n =
  Lru.set_capacity plan_cache n;
  Lru.set_capacity cplan_cache n

let splu_plan ?(counter = "linsys.splu.plans") pat =
  let key = Plan_key.reals ~tag:"splu" pat pat.Csr.v in
  match Lru.find plan_cache key with
  | Some p when Splu.plan_dim p = Csr.rows pat -> p
  | Some _ | None ->
    let p = Splu.plan pat in
    Obs.count counter 1;
    Lru.put plan_cache key p;
    p

let csplu_plan ?counter pat zvals =
  let key = Plan_key.complexes ~tag:"csplu" pat zvals in
  match Lru.find cplan_cache key with
  | Some p when Csplu.plan_dim p = Csr.rows pat -> p
  | Some _ | None ->
    let p = Csplu.plan pat zvals in
    (match counter with Some c -> Obs.count c 1 | None -> ());
    Lru.put cplan_cache key p;
    p

(* the current sparse values as a dense matrix — the last resort when
   sparse pivoting dies on values the dense code can still eliminate *)
let dense_of_csr pat =
  let n = Csr.rows pat in
  let m = Mat.create n n in
  let rp = pat.Csr.rp and ci = pat.Csr.ci and v = pat.Csr.v in
  for i = 0 to n - 1 do
    for p = rp.(i) to rp.(i + 1) - 1 do
      Mat.add_to m i ci.(p) v.(p)
    done
  done;
  m

let factorize ?(allow_degradation = true) sys =
  match sys.repr with
  | Rdense m -> begin
    (* dense pivoting never permutes columns, so the failing elimination
       step k is the original unknown index *)
    match Lu.factorize m with
    | lu ->
      Obs.count "linsys.fact.dense" 1;
      Fdense lu
    | exception Lu.Singular k -> raise (Singular_row k)
  end
  | Rsparse s -> begin
    let done_ f =
      (* replays vs. plans tells whether the KLU-style plan reuse is
         actually paying off; fill-in is a gauge because it is a
         property of the current plan, not an accumulating total *)
      if Obs.enabled () then begin
        Obs.count "linsys.fact.sparse" 1;
        Obs.gauge "linsys.splu.nnz_lu" (float_of_int (Splu.nnz_lu f))
      end;
      Fsparse f
    in
    (* last rung of the factorization ladder: the sparse path failed
       even after a re-plan, so re-factorize the same values densely.
       Dense partial pivoting eliminates anything short of a structural
       singularity, at O(n³) cost — recorded, never silent. *)
    let degrade k =
      if not allow_degradation then raise (Singular_row k)
      else begin
        Obs.count "linsys.degraded_to_dense" 1;
        ignore (Atomic.fetch_and_add degradation_total 1 : int);
        sys.degraded <- true;
        match Lu.factorize (dense_of_csr s.pat) with
        | lu -> Fdense lu
        | exception Lu.Singular k -> raise (Singular_row k)
      end
    in
    let replan_or_degrade () =
      match splu_plan s.pat with
      | p -> begin
        s.plan <- Some p;
        match Splu.factorize p s.pat with
        | f -> done_ f
        | exception Splu.Singular k -> degrade k
      end
      | exception Splu.Singular k -> degrade k
    in
    match Faultsim.fire "linsys.splu" with
    | Some (Faultsim.Singular k) ->
      (* injected: the whole sparse path (replay and re-plan) is due to
         fail — jump straight to the degradation rung *)
      degrade k
    | Some (Faultsim.Nan | Faultsim.Exn _ | Faultsim.Clock_skip _) | None -> (
      match s.plan with
      | None -> replan_or_degrade ()
      | Some p -> (
        match Splu.factorize p s.pat with
        | f -> done_ f
        | exception Splu.Singular _ ->
          (* the recorded pivot order went stale; re-plan on the current
             values and retry once *)
          Obs.count "linsys.splu.replans" 1;
          replan_or_degrade ()))
  end

let solve fact b =
  match fact with Fdense lu -> Lu.solve lu b | Fsparse f -> Splu.solve f b

let solve_inplace fact ~scratch b =
  match fact with
  | Fdense lu ->
    (* Lu.solve_inplace's arithmetic, with the caller's scratch *)
    Lu.solve_into lu b scratch;
    Array.blit scratch 0 b 0 (Array.length b)
  | Fsparse f -> Splu.solve_inplace f ~scratch b

let solve_transpose fact b =
  match fact with
  | Fdense lu -> Lu.solve_transpose lu b
  | Fsparse f -> Splu.solve_transpose f b

type rmat = Mdense of Mat.t | Msparse of Csr.t

let c_matrix sys circuit =
  match sys.repr with
  | Rdense _ -> Mdense (Stamp.c_matrix circuit)
  | Rsparse _ -> Msparse (Stamp.c_csr circuit)

let rmat_dense = function Mdense m -> m | Msparse c -> Csr.to_dense c
let rmat_csr = function Mdense m -> Csr.of_dense m | Msparse c -> c

let rmat_mul_vec_into cm x y =
  match cm with
  | Mdense m -> Mat.mul_vec_into m x y
  | Msparse c -> Csr.mul_vec_into c x y
