type result = {
  x : Vec.t;
  iterations : int;
  converged : bool;
  residual_norm : float;
  residual_history : float array;
  worst_row : int option;
  last_fact : Linsys.rfact option;
  singular_row : int option;
}

exception No_convergence of string

let history_string ?(max_entries = 6) hist =
  let n = Array.length hist in
  if n = 0 then "(empty)"
  else begin
    let first = Stdlib.max 0 (n - max_entries) in
    let b = Buffer.create 64 in
    if first > 0 then Buffer.add_string b "… ";
    for i = first to n - 1 do
      if i > first then Buffer.add_string b " -> ";
      Buffer.add_string b (Printf.sprintf "%.3g" hist.(i))
    done;
    Buffer.contents b
  end

(* index of the largest-magnitude residual entry — names the worst
   unknown of a failed solve via Circuit.row_name *)
let argmax_abs g =
  let n = Vec.dim g in
  if n = 0 then None
  else begin
    let k = ref 0 in
    for i = 1 to n - 1 do
      if Float.abs g.(i) > Float.abs g.(!k) then k := i
    done;
    Some !k
  end

let solve ~eval ~sys ~x0 ?budget ?(policy = Retry.default) ?(max_iter = 80)
    ?(abstol = 1e-9) ?(xtol = 1e-9) ?(max_step = 1.0) () =
  let n = Vec.dim x0 in
  let x = Vec.copy x0 in
  let g = Vec.create n in
  (* −g, the update and the solve's scratch, rewritten every iterate *)
  let rhs = Vec.create n and dx = Vec.create n and scratch = Vec.create n in
  let hist = ref [] in
  let history () = Array.of_list (List.rev !hist) in
  let fail ?singular iter gnorm last_fact =
    { x; iterations = iter; converged = false; residual_norm = gnorm;
      residual_history = history (); worst_row = argmax_abs g;
      last_fact; singular_row = singular }
  in
  (* One eval + factorize, re-attempted up to [policy.max_retries]
     times on a non-finite residual or singular factorization.  The
     re-runs are deterministic, so a transient fault — the kind
     Faultsim injects, or a genuinely flaky FPU/memory event — recovers
     bit-identically, while a persistent failure reproduces and falls
     through to the caller's homotopy ladder after the bound. *)
  let eval_attempt () =
    eval ~x ~g;
    (match Faultsim.fire "newton.residual" with
     | Some Faultsim.Nan -> g.(0) <- Float.nan
     | Some (Faultsim.Singular _ | Faultsim.Exn _ | Faultsim.Clock_skip _)
     | None -> ());
    Vec.norm_inf g
  in
  let factorize_attempt () =
    match Faultsim.fire "newton.factorize" with
    | Some (Faultsim.Singular k) -> Error k
    | Some (Faultsim.Nan | Faultsim.Exn _ | Faultsim.Clock_skip _) | None -> (
      match Linsys.factorize ~allow_degradation:policy.Retry.allow_degradation
              sys with
      | f -> Ok f
      | exception Linsys.Singular_row k -> Error k)
  in
  let rec stage tries =
    let gnorm = eval_attempt () in
    if not (Float.is_finite gnorm) then
      if tries < policy.Retry.max_retries then begin
        Retry.rung "newton.retry";
        stage (tries + 1)
      end
      else `Nonfinite gnorm
    else
      match factorize_attempt () with
      | Ok f -> `Fact (gnorm, f)
      | Error k ->
        if tries < policy.Retry.max_retries then begin
          Retry.rung "newton.retry";
          stage (tries + 1)
        end
        else `Singular (gnorm, k)
  in
  let rec iterate iter last_fact =
    Budget.tick_opt budget;
    match stage 0 with
    | `Nonfinite gnorm ->
      hist := gnorm :: !hist;
      fail iter gnorm last_fact
    | `Singular (gnorm, k) ->
      hist := gnorm :: !hist;
      fail ~singular:k iter gnorm last_fact
    | `Fact (gnorm, fact) ->
      hist := gnorm :: !hist;
      for i = 0 to n - 1 do
        rhs.(i) <- -1.0 *. g.(i)
      done;
      Linsys.solve_into fact ~scratch rhs dx;
      let raw_step = Vec.norm_inf dx in
      if not (Float.is_finite raw_step) then fail iter gnorm (Some fact)
      else begin
        let damp = if raw_step > max_step then max_step /. raw_step else 1.0 in
        if damp < 1.0 then Obs.count "newton.damping_events" 1;
        Vec.axpy damp dx x;
        let step = raw_step *. damp in
        if gnorm <= abstol && step <= xtol then
          { x; iterations = iter + 1; converged = true;
            residual_norm = gnorm; residual_history = history ();
            worst_row = None; last_fact = Some fact; singular_row = None }
        else if iter + 1 >= max_iter then fail (iter + 1) gnorm (Some fact)
        else iterate (iter + 1) (Some fact)
      end
  in
  let r = iterate 0 None in
  if Obs.enabled () then begin
    Obs.count "newton.solves" 1;
    Obs.count "newton.iterations" r.iterations;
    if not r.converged then Obs.count "newton.failures" 1
  end;
  r
