type source = {
  src_name : string;
  src_inject : Lptv.injection;
  src_psd : float;
}

type contribution = {
  source : source;
  transfer : Cx.t;
  share : float;
}

type sideband = {
  output : string;
  harmonic : int;
  f_offset : float;
  total_psd : float;
  contributions : contribution array;
}

let mismatch_sources lptv =
  Obs.span "pnoise.sources" @@ fun () ->
  let pss = Lptv.pss lptv in
  let circuit = pss.Pss.circuit in
  let params = Circuit.mismatch_params circuit in
  Obs.count "pnoise.sources_stamped" (Array.length params);
  let m = Lptv.steps lptv in
  (* backward-difference state derivatives, computed once and shared by
     every ΔC source's injection closure *)
  let xdots =
    Array.init (m + 1) (fun k -> if k = 0 then [||] else Pss.xdot pss ~k)
  in
  Array.map
    (fun (p : Circuit.mismatch_param) ->
      let inject k =
        (* bias-dependent injection along the cycle; ΔC parameters use
           the backward-difference state derivative *)
        let x = pss.Pss.states.(k) in
        let xdot = xdots.(k) in
        (* the small-signal RHS is -∂g/∂δ *)
        List.map (fun (row, v) -> (row, -.v))
          (Stamp.injection circuit p ~x ~xdot ())
      in
      {
        src_name =
          Printf.sprintf "%s:%s" p.Circuit.device_name
            (Circuit.kind_to_string p.Circuit.kind);
        src_inject = inject;
        src_psd = p.Circuit.sigma *. p.Circuit.sigma;
      })
    params

let physical_sources ?temp lptv =
  Obs.span "pnoise.sources" @@ fun () ->
  let pss = Lptv.pss lptv in
  let circuit = pss.Pss.circuit in
  (* enumerate the bias-dependent source list once per grid step and
     share it across all closures — re-stamping the full circuit inside
     every source's [inject] was O(S²·m).  The k=1 list fixes the source
     identities; the modulation is folded into the injection amplitude
     (unit-PSD stationary noise times m(t)) *)
  let f = Lptv.f_offset lptv in
  let m = Lptv.steps lptv in
  let per_step =
    Array.init (m + 1) (fun k ->
        if k = 0 then [||]
        else
          Array.of_list
            (Stamp.noise_sources circuit ~x:pss.Pss.states.(k) ?temp ()))
  in
  Obs.count "pnoise.sources_stamped" (Array.length per_step.(1));
  Array.mapi
    (fun idx (ns : Stamp.noise_source) ->
      let inject k =
        let here = per_step.(k) in
        if idx >= Array.length here then []
        else begin
          let ns_k = here.(idx) in
          let scale = sqrt (ns_k.Stamp.ns_psd f) in
          List.map (fun (row, v) -> (row, v *. scale)) ns_k.Stamp.ns_rows
        end
      in
      { src_name = ns.Stamp.ns_name; src_inject = inject; src_psd = 1.0 })
    per_step.(1)

let finish ?(domains = 1) ?(policy = Retry.default) ?budget ~output ~harmonic
    ~f_offset ~lam ~sources () =
  Obs.count "pnoise.transfers" (Array.length sources);
  (* per-index slots so budget expiry can abandon the tail; a transient
     lane fault (the ["pnoise.transfer"] site) re-runs the whole
     deterministic fan-out bit-identically *)
  let slots = Array.make (Array.length sources) None in
  Domain_pool.with_pool domains (fun pool ->
      Retry.with_transients ~policy ~label:"pnoise" (fun () ->
          Domain_pool.parallel_for pool (Array.length sources)
            ~chunk:(Domain_pool.chunk_hint pool (Array.length sources))
            ~label:"pnoise.transfer" ?should_stop:(Budget.stop_opt budget)
            (fun i ->
              Faultsim.check_exn "pnoise.transfer";
              let src = sources.(i) in
              let tf = Lptv.apply lam src.src_inject in
              slots.(i) <-
                Some
                  { source = src; transfer = tf;
                    share = Cx.abs2 tf *. src.src_psd })));
  Budget.check_opt budget;
  let contributions =
    Array.map (function Some c -> c | None -> assert false) slots
  in
  let total = Array.fold_left (fun acc c -> acc +. c.share) 0.0 contributions in
  { output; harmonic; f_offset; total_psd = total; contributions }

let analyze ?domains ?policy ?budget lptv ~output ~harmonic ~sources =
  Obs.span "pnoise.analyze" @@ fun () ->
  let pss = Lptv.pss lptv in
  let row = Circuit.node_row pss.Pss.circuit output in
  let lam = Lptv.adjoint_harmonic lptv ~row ~harmonic in
  finish ?domains ?policy ?budget ~output ~harmonic
    ~f_offset:(Lptv.f_offset lptv) ~lam ~sources ()

let analyze_sample ?domains ?policy ?budget lptv ~output ~k ~sources =
  Obs.span "pnoise.analyze" @@ fun () ->
  let pss = Lptv.pss lptv in
  let row = Circuit.node_row pss.Pss.circuit output in
  let lam = Lptv.adjoint_sample lptv ~row ~k in
  finish ?domains ?policy ?budget ~output ~harmonic:0
    ~f_offset:(Lptv.f_offset lptv) ~lam ~sources ()

(* Forward reading: one direct solve per source, O(sources) periodic
   BVP solves. *)
let sigma_waveform_forward ~domains ~policy ?budget lptv ~row ~sources =
  let m = Lptv.steps lptv in
  (* each lane writes only its own per-source row, then the rows are
     reduced in source order so the result is independent of the lane
     count *)
  let slots = Array.make (Array.length sources) None in
  Domain_pool.with_pool domains (fun pool ->
      Retry.with_transients ~policy ~label:"pnoise" (fun () ->
          Domain_pool.parallel_for pool (Array.length sources)
            ~chunk:(Domain_pool.chunk_hint pool (Array.length sources))
            ~label:"pnoise.solve_source" ?should_stop:(Budget.stop_opt budget)
            (fun i ->
              Faultsim.check_exn "pnoise.transfer";
              let src = sources.(i) in
              let p = Lptv.solve_source lptv src.src_inject in
              slots.(i) <-
                Some
                  (Array.init m (fun j ->
                       let re = p.(j + 1).re.(row) and im = p.(j + 1).im.(row) in
                       ((re *. re) +. (im *. im)) *. src.src_psd)))));
  Budget.check_opt budget;
  let rows = Array.map (function Some r -> r | None -> assert false) slots in
  let acc = Array.make m 0.0 in
  Array.iter
    (fun r ->
      for j = 0 to m - 1 do
        acc.(j) <- acc.(j) +. r.(j)
      done)
    rows;
  Array.map sqrt acc

(* Adjoint reading: one sample functional per grid point, O(steps)
   solves regardless of the source count — the paper's §I economics
   applied to the statistical waveform (Fig. 8). *)
let sigma_waveform_adjoint ~domains ~policy ?budget lptv ~row ~sources =
  let m = Lptv.steps lptv in
  let slots = Array.make m None in
  Domain_pool.with_pool domains (fun pool ->
      Retry.with_transients ~policy ~label:"pnoise" (fun () ->
          Domain_pool.parallel_for pool m
            ~chunk:(Domain_pool.chunk_hint pool m)
            ~label:"pnoise.adjoint_sample"
            ?should_stop:(Budget.stop_opt budget)
            (fun j ->
              Faultsim.check_exn "pnoise.transfer";
              let lam = Lptv.adjoint_sample lptv ~row ~k:(j + 1) in
              let s = ref 0.0 in
              Array.iter
                (fun src ->
                  let tf = Lptv.apply lam src.src_inject in
                  s := !s +. (Cx.abs2 tf *. src.src_psd))
                sources;
              slots.(j) <- Some !s)));
  Budget.check_opt budget;
  Array.map
    (function Some s -> sqrt s | None -> assert false)
    slots

let sigma_waveform ?(domains = 1) ?(policy = Retry.default) ?budget
    ?(via = `Auto) lptv ~output ~sources =
  Obs.span "pnoise.sigma_waveform" @@ fun () ->
  let pss = Lptv.pss lptv in
  let row = Circuit.node_row pss.Pss.circuit output in
  let adjoint =
    match via with
    | `Forward -> false
    | `Adjoint -> true
    | `Auto ->
      (* each forward solve costs one BVP solve per source, each
         adjoint one per grid point — take the smaller count *)
      Array.length sources > Lptv.steps lptv
  in
  if adjoint then begin
    Obs.count "pnoise.sigma_waveform.adjoint" 1;
    sigma_waveform_adjoint ~domains ~policy ?budget lptv ~row ~sources
  end
  else begin
    Obs.count "pnoise.sigma_waveform.forward" 1;
    sigma_waveform_forward ~domains ~policy ?budget lptv ~row ~sources
  end

let pp_sideband ppf sb =
  Format.fprintf ppf
    "@[<v>PNOISE %s: sideband N=%d at offset %g Hz: PSD = %.6g@,"
    sb.output sb.harmonic sb.f_offset sb.total_psd;
  let sorted = Array.copy sb.contributions in
  Array.sort (fun a b -> compare b.share a.share) sorted;
  Array.iter
    (fun c ->
      if sb.total_psd > 0.0 && c.share /. sb.total_psd > 0.002 then
        Format.fprintf ppf "  %-24s share=%6.2f%%  |TF|=%.4g@," c.source.src_name
          (100.0 *. c.share /. sb.total_psd)
          (Cx.abs c.transfer))
    sorted;
  Format.fprintf ppf "@]"
