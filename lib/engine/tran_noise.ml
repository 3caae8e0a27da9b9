let run ?(seed = 1) ?temp ?(options = Tran.default_options) ?x0 circuit
    ~tstart ~tstop ~dt () =
  if dt <= 0.0 || tstop <= tstart then invalid_arg "Tran_noise.run";
  let rng = Rng.create seed in
  let sys = Linsys.make circuit in
  let c_mat = Linsys.c_matrix sys circuit in
  let x0 =
    match x0 with
    | Some x -> Vec.copy x
    | None -> Dc.solve_at ~t:tstart circuit
  in
  let steps = int_of_float (Float.ceil ((tstop -. tstart) /. dt -. 1e-9)) in
  let times = Array.make (steps + 1) tstart in
  let states = Array.make (steps + 1) (Vec.copy x0) in
  let x = ref x0 in
  for k = 1 to steps do
    let t_next = tstart +. (float_of_int k *. dt) in
    (* draw one sample per source at the current bias *)
    let sources = Stamp.noise_sources circuit ~x:!x ?temp () in
    let forcing =
      List.concat_map
        (fun (ns : Stamp.noise_source) ->
          (* white-noise discretization: variance = PSD/(2 dt); flicker
             sources are sampled at the step rate's scale frequency *)
          let psd = ns.Stamp.ns_psd (1.0 /. (2.0 *. dt)) in
          let amp = Rng.gaussian_sigma rng (sqrt (psd /. (2.0 *. dt))) in
          List.map (fun (row, v) -> (row, v *. amp)) ns.Stamp.ns_rows)
        sources
    in
    let r =
      Tran.step ~options ~circuit ~sys ~c_mat ~x_prev:!x
        ~t_prev:(t_next -. dt) ~t_next ~forcing ()
    in
    if not r.Newton.converged then raise (Tran.Step_failed t_next);
    x := r.Newton.x;
    times.(k) <- t_next;
    states.(k) <- Vec.copy r.Newton.x
  done;
  { Waveform.circuit; times; states }

let node_stationary_variance ?seed ?temp circuit ~node ~tstop ~dt ~settle =
  let w = run ?seed ?temp circuit ~tstart:0.0 ~tstop ~dt () in
  let v = Waveform.signal w node in
  let samples =
    Array.of_list
      (List.filteri
         (fun i _ -> w.Waveform.times.(i) >= settle)
         (Array.to_list v))
  in
  Stats.central_moment 2 samples
