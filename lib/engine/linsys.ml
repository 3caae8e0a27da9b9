type solver = Dense | Sparse | Krylov

(* All seed circuits sit well below this (largest is 34 unknowns), so
   they keep the bit-exact dense path; above it the O(n³) factorizations
   and the O(n²·m) monodromy accumulation dominate, which sparse LU plus
   the matrix-free periodic wrap exist to kill. *)
let auto_threshold = 64

let solver_for n = if n >= auto_threshold then Krylov else Dense

(* Fallback accounts.  A job runs on one domain at a time (a CLI
   process, a serve lane, a sweep lane), so each domain counts its own
   fallbacks and a job's delta never sees another lane's.  Monte Carlo
   sample lanes adopt the caller's account, so the counts are atomic. *)
type account = { degradations : int Atomic.t; krylov_fallbacks : int Atomic.t }

let account_key =
  Domain.DLS.new_key (fun () ->
      { degradations = Atomic.make 0; krylov_fallbacks = Atomic.make 0 })

let account () = Domain.DLS.get account_key
let adopt_account a = Domain.DLS.set account_key a
let degradation_count () = Atomic.get (account ()).degradations
let krylov_fallback_count () = Atomic.get (account ()).krylov_fallbacks

let note_krylov_fallback () =
  Obs.count "linsys.krylov_fallback" 1;
  Atomic.incr (account ()).krylov_fallbacks

exception Singular_row of int

type repr =
  | Rdense of Mat.t
  | Rsparse of rsparse

and rsparse = {
  pat : Csr.t;
  mutable plan : Csplu.plan option;
  work : Vec.t;
  factored : Vec.t;
  mutable last : Splu.t option;
}

type rsys = {
  size : int;
  repr : repr;
  sink : Stamp.jac_sink;
}

let make ?solver circuit =
  let n = Circuit.size circuit in
  match Option.value solver ~default:(solver_for n) with
  | Sparse | Krylov ->
    Obs.count "linsys.sys.sparse" 1;
    let pat = Stamp.pattern circuit in
    { size = n;
      repr =
        Rsparse
          { pat; plan = None; work = Vec.create n;
            factored = Vec.create (Csr.nnz pat); last = None };
      sink = Stamp.csr_sink circuit pat }
  | Dense ->
    Obs.count "linsys.sys.dense" 1;
    let m = Mat.create n n in
    { size = n; repr = Rdense m; sink = Stamp.dense_sink m }

type rfact = Fdense of Lu.t | Fsparse of Splu.t

(* ------------------------------------------------------------------ *)
(* process-global plan cache (docs/serving.md)

   One LRU for the real and the complex sparse systems: a real matrix
   is planned as complex values with a +0 imaginary part (Splu.plan),
   so both kinds share one plan type and one key.  Keyed on the exact
   pattern AND the exact planning values (raw IEEE-754 bits), so a hit
   returns precisely the plan a fresh Csplu.plan call would have
   computed: replayed pivots are identical, results are bit-identical,
   and the cache is observable only as fewer "symbolic.plan"
   increments.  Shared across analyses in one process — this is what
   lets a domain-isolated sweep (or the serve daemon) plan a shared
   circuit once instead of once per point. *)

let plans : Csplu.plan Lru.t = Lru.create ~capacity:128 "plan"

let plan ?counter pat zvals =
  let key = Plan_key.digest pat zvals in
  match Lru.find plans key with
  | Some p when Csplu.plan_dim p = Csr.rows pat -> p
  | Some _ | None ->
    let p = Csplu.plan pat zvals in
    (match counter with Some c -> Obs.count c 1 | None -> ());
    Lru.put plans key p;
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
      Array.blit s.pat.Csr.v 0 s.factored 0 (Array.length s.factored);
      s.last <- Some f;
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
        Atomic.incr (account ()).degradations;
        match Lu.factorize (dense_of_csr s.pat) with
        | lu -> Fdense lu
        | exception Lu.Singular k -> raise (Singular_row k)
      end
    in
    let replan_or_degrade () =
      (* a replay of the kept factor's values on a new plan would pivot
         differently, so the kept factor is no longer what a fresh
         factorization returns *)
      s.last <- None;
      match
        plan ~counter:"linsys.splu.plans" s.pat (Cvec.of_real s.pat.Csr.v)
      with
      | p -> begin
        s.plan <- Some p;
        match Splu.factorize ~scratch:s.work p s.pat with
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
      match s.last, s.plan with
      | Some f, _ when Vec.bits_equal s.pat.Csr.v s.factored ->
        (* the values the kept factor was replayed from, bit for bit,
           on the current plan: a replay would return the same factor *)
        Obs.count "linsys.fact.reused" 1;
        Fsparse f
      | _, None -> replan_or_degrade ()
      | _, Some p -> (
        match Splu.factorize ~scratch:s.work p s.pat with
        | f -> done_ f
        | exception Splu.Singular _ ->
          (* the recorded pivot order went stale; re-plan on the current
             values and retry once *)
          Obs.count "linsys.splu.replans" 1;
          replan_or_degrade ()))
  end

let solve_into fact ~scratch b x =
  match fact with
  | Fdense lu -> Lu.solve_into lu b x
  | Fsparse f -> Splu.solve_into f ~scratch b x

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

type rmat = Mdense of Mat.t | Msparse of { c : Csr.t; at : int array }

let c_matrix sys circuit =
  match sys.repr with
  | Rdense _ -> Mdense (Stamp.c_matrix circuit)
  | Rsparse s ->
    let c = Stamp.c_csr circuit in
    let at = Array.make (Csr.nnz c) 0 in
    for i = 0 to Csr.rows c - 1 do
      for p = c.Csr.rp.(i) to c.Csr.rp.(i + 1) - 1 do
        at.(p) <- Csr.index s.pat i c.Csr.ci.(p)
      done
    done;
    Msparse { c; at }

let rmat_dense = function Mdense m -> m | Msparse { c; _ } -> Csr.to_dense c
let rmat_csr = function Mdense m -> Csr.of_dense m | Msparse { c; _ } -> c
