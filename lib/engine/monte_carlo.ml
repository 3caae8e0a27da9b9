type result = {
  values : float array array;
  weights : float array;
  summaries : Stats.summary array;
  failed : int;
  timed_out : bool;
  seconds : float;
}

let draw_deltas rng params =
  Array.map
    (fun (p : Circuit.mismatch_param) -> Rng.gaussian_sigma rng p.Circuit.sigma)
    params

(* per-sample generator: decorrelate the (seed, index) pair through the
   generator's own mixing *)
let sample_rng ~seed ~index = Rng.create ((seed * 1_000_003) + index + 1)

let deltas_for_sample ~seed ~index params =
  draw_deltas (sample_rng ~seed ~index) params

let run_sample ~seed ~first ~transform ~weight ~params ~circuit ~measure i =
  let index = first + i in
  let deltas = deltas_for_sample ~seed ~index params in
  (* the weight hook sees the raw independent σ-scaled draw — the
     density the likelihood ratio is taken against — never the
     shifted/correlated vector the measurement sees *)
  let w = match weight with Some f -> f ~index deltas | None -> 1.0 in
  let deltas = match transform with Some f -> f deltas | None -> deltas in
  let perturbed = Circuit.apply_deltas circuit deltas in
  match measure perturbed with
  | row -> Some (row, w)
  | exception _ -> None

let run ?(seed = 42) ?(domains = 1) ?(first = 0) ?transform ?weight ?stop
    ?budget ~n ~circuit ~measure () =
  Obs.span "monte_carlo.run" @@ fun () ->
  Obs.count "monte_carlo.samples" n;
  let t_start = Unix.gettimeofday () in
  let params = Circuit.mismatch_params circuit in
  let results = Array.make n None in
  (* each lane writes only its own sample slots; the (seed, first+index)
     derivation makes the stream independent of the lane count.
     Budget expiry (or the caller's stop hook) keeps lanes from claiming
     further samples; the run degrades to a partial result (skipped
     samples count as failed, [timed_out] flags a budget truncation)
     rather than raising — a partial MC population is still a usable
     estimate. *)
  let should_stop =
    match Budget.stop_opt budget, stop with
    | None, None -> None
    | (Some _ as s), None -> s
    | None, (Some _ as s) -> s
    | Some b, Some s -> Some (fun () -> b () || s ())
  in
  (* sample lanes count their fallbacks toward the caller's job *)
  let account = Linsys.account () in
  Lanes.run ~spawn:Lanes.domain ~lanes:domains ~label:"monte_carlo.sample"
    ?should_stop n (fun i ->
      Linsys.adopt_account account;
      results.(i) <-
        run_sample ~seed ~first ~transform ~weight ~params ~circuit ~measure i);
  let timed_out =
    match budget with Some b -> Budget.expired b | None -> false
  in
  if timed_out then Obs.count "monte_carlo.timed_out" 1;
  let collected = Array.to_list results |> List.filter_map (fun x -> x) in
  let values = Array.of_list (List.map fst collected) in
  let weights = Array.of_list (List.map snd collected) in
  let failed = n - Array.length values in
  let n_outputs = if Array.length values = 0 then 0 else Array.length values.(0) in
  let summaries =
    Array.init n_outputs (fun j ->
        Stats.summarize (Array.map (fun row -> row.(j)) values))
  in
  { values; weights; summaries; failed; timed_out;
    seconds = Unix.gettimeofday () -. t_start }

let run_scalar ?seed ?domains ?first ?transform ?weight ?stop ?budget ~n
    ~circuit ~measure () =
  run ?seed ?domains ?first ?transform ?weight ?stop ?budget ~n ~circuit
    ~measure:(fun c -> [| measure c |]) ()

let samples_of r j = Array.map (fun row -> row.(j)) r.values
