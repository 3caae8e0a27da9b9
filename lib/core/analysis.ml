type pss_context = {
  pss : Pss.t;
  lptv : Lptv.t;
  sources : Pnoise.source array;
  domains : int;
  policy : Retry.policy;
  budget : Budget.t option;
  cache : (Cache.t * string) option;
}

let timed f =
  let t0 = Unix.gettimeofday () in
  let y = f () in
  (y, Unix.gettimeofday () -. t0)

let prepare ?(steps = 200) ?(f_offset = 1.0) ?warmup_periods ?(domains = 1)
    ?(policy = Retry.default) ?budget ?cache circuit ~period =
  Obs.span "analysis.prepare" @@ fun () ->
  (* the converged shooting state is the expensive part of a PSS solve:
     with a cached states.(0) for this exact (circuit, knobs) key the
     warm solve skips DC + warmup, replays the single deterministic
     sweep from the stored state and verifies the residual at iteration
     zero — bit-identical to the cold solve's final pass, with the
     verification guarding against a stale entry *)
  let state_key prefix = prefix ^ "|pss-state" in
  let n = Circuit.size circuit in
  let x0 =
    match cache with
    | None -> None
    | Some (c, prefix) -> (
      match Cache.find_floats c (state_key prefix) with
      | Some xs when Array.length xs = n -> Some xs
      | Some _ | None -> None)
  in
  let pss =
    Pss.solve ~steps ?warmup_periods ~policy ?budget ?x0 circuit ~period
  in
  (match cache, x0 with
   | Some (c, prefix), None ->
     Cache.put_floats c (state_key prefix) (Array.copy pss.Pss.states.(0))
   | _ -> ());
  let lptv = Lptv.build ~domains ~policy ?budget pss ~f_offset in
  let sources = Pnoise.mismatch_sources lptv in
  { pss; lptv; sources; domains; policy; budget; cache }

(* PNOISE sidebands flatten losslessly to a float array (every float
   round-trips through the cache's hex codec bit-exactly):
   [| total_psd; f_offset; harmonic; re0; im0; share0; re1; ... |] —
   contributions are reconstructed against [ctx.sources], which is in
   {!Circuit.mismatch_params} order for both the writer and the reader
   of a given fingerprint.  A length mismatch (source count changed
   under the same key — should be impossible, but cheap to check) is a
   miss. *)
let cached_sideband ctx ~tag ~output compute =
  match ctx.cache with
  | None -> compute ()
  | Some (c, prefix) ->
    let key = Printf.sprintf "%s|pnoise|%s|%s" prefix tag output in
    let n = Array.length ctx.sources in
    let decode xs =
      if Array.length xs <> 3 + (3 * n) then None
      else
        let contributions =
          Array.mapi
            (fun i src ->
              let b = 3 + (3 * i) in
              { Pnoise.source = src;
                transfer = Cx.mk xs.(b) xs.(b + 1);
                share = xs.(b + 2) })
            ctx.sources
        in
        Some { Pnoise.output; harmonic = int_of_float xs.(2);
               f_offset = xs.(1); total_psd = xs.(0); contributions }
    in
    (match Option.bind (Cache.find_floats c key) decode with
     | Some sb -> sb
     | None ->
       let sb = compute () in
       let xs = Array.make (3 + (3 * n)) 0.0 in
       xs.(0) <- sb.Pnoise.total_psd;
       xs.(1) <- sb.Pnoise.f_offset;
       xs.(2) <- float_of_int sb.Pnoise.harmonic;
       Array.iteri
         (fun i (cb : Pnoise.contribution) ->
           let b = 3 + (3 * i) in
           xs.(b) <- cb.Pnoise.transfer.Cx.re;
           xs.(b + 1) <- cb.Pnoise.transfer.Cx.im;
           xs.(b + 2) <- cb.Pnoise.share)
         sb.Pnoise.contributions;
       Cache.put_floats c key xs;
       sb)

let params_of ctx = Circuit.mismatch_params ctx.pss.Pss.circuit

let items_of_sideband ctx (sb : Pnoise.sideband) ~to_sensitivity =
  let params = params_of ctx in
  Array.mapi
    (fun i (p : Circuit.mismatch_param) ->
      let c = sb.Pnoise.contributions.(i) in
      let s = to_sensitivity c.Pnoise.transfer in
      { Report.param = p; sensitivity = s; weighted = s *. p.Circuit.sigma })
    params

let dc_variation ctx ~output =
  Obs.span "analysis.dc_variation" @@ fun () ->
  let (sb, nominal), runtime =
    timed (fun () ->
        let sb =
          cached_sideband ctx ~tag:"h0" ~output (fun () ->
              Pnoise.analyze ~domains:ctx.domains ~policy:ctx.policy
                ?budget:ctx.budget ctx.lptv ~output ~harmonic:0
                ~sources:ctx.sources)
        in
        let samples = Pss.node_samples ctx.pss output in
        let nominal = Stats.mean samples in
        (sb, nominal))
  in
  (* at the 1 Hz reading point the baseband transfer is essentially
     real; its real part is the signed DC sensitivity *)
  let items = items_of_sideband ctx sb ~to_sensitivity:(fun tf -> tf.Cx.re) in
  Report.make ~metric:(Printf.sprintf "dc(%s) [V]" output) ~nominal ~items
    ~runtime

type crossing = {
  edge : Waveform.edge;
  threshold : float;
  after : float;
}

(* locate the crossing on the PSS grid: (grid index, exact time, slope) *)
let locate_crossing ctx ~output ~crossing =
  let pss = ctx.pss in
  let m = pss.Pss.steps in
  let h = pss.Pss.period /. float_of_int m in
  let v = Pss.node_samples pss output in
  (* v.(i) is the sample at t = (i+1)·h *)
  let value k = v.((k - 1 + m) mod m) in
  let rec find k =
    if k >= m then
      failwith
        (Printf.sprintf "Analysis: no %s crossing of %s after %.3g"
           (match crossing.edge with
            | Waveform.Rising -> "rising"
            | Waveform.Falling -> "falling")
           output crossing.after)
    else begin
      let t0 = float_of_int k *. h in
      let a = value k -. crossing.threshold in
      let b = value (k + 1) -. crossing.threshold in
      let qualifies =
        t0 >= crossing.after
        &&
        match crossing.edge with
        | Waveform.Rising -> a < 0.0 && b >= 0.0
        | Waveform.Falling -> a > 0.0 && b <= 0.0
      in
      if qualifies then begin
        let frac = if b = a then 0.0 else -.a /. (b -. a) in
        let t_c = t0 +. (frac *. h) in
        let k_c = if frac < 0.5 then k else k + 1 in
        let k_c = Stdlib.max 1 (Stdlib.min m k_c) in
        let slope =
          (* centered difference around the crossing *)
          (value (k + 1) -. value k) /. h
        in
        (k_c, t_c, slope)
      end
      else find (k + 1)
    end
  in
  find 1

let crossing_time ctx ~output ~crossing =
  let _, t_c, _ = locate_crossing ctx ~output ~crossing in
  t_c

let delay_variation ctx ~output ~crossing =
  Obs.span "analysis.delay_variation" @@ fun () ->
  let (k_c, t_c, slope), _ = timed (fun () -> locate_crossing ctx ~output ~crossing) in
  let sb, runtime =
    timed (fun () ->
        cached_sideband ctx ~tag:(Printf.sprintf "k%d" k_c) ~output (fun () ->
            Pnoise.analyze_sample ~domains:ctx.domains ~policy:ctx.policy
              ?budget:ctx.budget ctx.lptv ~output ~k:k_c ~sources:ctx.sources))
  in
  (* a voltage perturbation Δv at the crossing shifts the edge by
     -Δv/slope *)
  let items =
    items_of_sideband ctx sb ~to_sensitivity:(fun tf -> -.tf.Cx.re /. slope)
  in
  Report.make ~metric:(Printf.sprintf "crossing(%s) [s]" output) ~nominal:t_c
    ~items ~runtime

let delay_variation_psd ctx ~output =
  Obs.span "analysis.delay_variation_psd" @@ fun () ->
  let sb =
    cached_sideband ctx ~tag:"h1" ~output (fun () ->
        Pnoise.analyze ~domains:ctx.domains ~policy:ctx.policy
          ?budget:ctx.budget ctx.lptv ~output ~harmonic:1 ~sources:ctx.sources)
  in
  let amplitude = Pss.amplitude ctx.pss output in
  let f0 = 1.0 /. ctx.pss.Pss.period in
  Variation.delay_sigma ~passband_psd:sb.Pnoise.total_psd ~amplitude ~f0

(* eq. (9) derivation in our conventions: a static frequency deviation
   Δf = S·δ seen through the 1 Hz pseudo-noise is narrowband FM at
   modulation rate f_m = f_offset with deviation Δf, so the upper
   sideband's complex Fourier-coefficient perturbation has magnitude
   |y₁| = A_c·Δf/(4·f_m).  Inverting: σ_f = 4·f_m·√P₁/A_c with
   P₁ = Σ|y₁,i|²σ_i². *)
let frequency_variation_psd ?(f_offset = 1.0) ?(domains = 1) ?policy ?budget
    (osc : Pss_osc.t) ~output =
  Obs.span "analysis.frequency_variation_psd" @@ fun () ->
  let pss = osc.Pss_osc.pss in
  let lptv = Lptv.build ~domains ?policy ?budget pss ~f_offset in
  let sources = Pnoise.mismatch_sources lptv in
  let sb =
    Pnoise.analyze ~domains ?policy ?budget lptv ~output ~harmonic:1 ~sources
  in
  let amplitude = Pss.amplitude pss output in
  4.0 *. f_offset *. sqrt (Float.max 0.0 sb.Pnoise.total_psd) /. amplitude

let frequency_variation ?(steps = 200) ?policy ?budget circuit ~anchor
    ~f_guess =
  Obs.span "analysis.frequency_variation" @@ fun () ->
  let (osc, rep), runtime =
    timed (fun () ->
        let osc = Pss_osc.solve ~steps ?policy ?budget circuit ~anchor ~f_guess in
        (osc, Period_sens.analyze osc))
  in
  let items =
    Array.map
      (fun (c : Period_sens.contribution) ->
        {
          Report.param = c.Period_sens.param;
          sensitivity = c.Period_sens.df_ddelta;
          weighted = c.Period_sens.df_ddelta *. c.Period_sens.param.Circuit.sigma;
        })
      rep.Period_sens.contributions
  in
  ( Report.make ~metric:"frequency [Hz]" ~nominal:rep.Period_sens.frequency
      ~items ~runtime,
    osc )
