type options = {
  abstol : float;
  xtol : float;
  max_iter : int;
  gmin_final : float;
}

let default_options =
  { abstol = 1e-9; xtol = 1e-9; max_iter = 120; gmin_final = 1e-12 }

exception No_convergence of string

let attempt circuit ~sys ~singular ~last_fail ~options ~budget ~policy ~t ~gmin
    ~src_scale ~max_step ~x0 =
  let eval ~x ~g =
    Stamp.eval circuit ~t ~gmin ~src_scale ~x ~g ~jac:(Some sys.Linsys.sink) ()
  in
  let r =
    Newton.solve ~eval ~sys ~x0 ?budget ~policy ~max_iter:options.max_iter
      ~abstol:options.abstol ~xtol:options.xtol ~max_step ()
  in
  if not r.Newton.converged then last_fail := Some r;
  (match r.Newton.singular_row with
   | Some k -> singular := Some k
   | None -> ());
  r

let fail circuit singular last_fail what =
  let detail =
    match !singular with
    | Some k ->
      Printf.sprintf "%s (singular matrix at %s)" what
        (Circuit.row_name circuit k)
    | None -> what
  in
  (* attach the failing Newton record so "did not converge" names the
     worst unknown and shows where the residual stalled *)
  let detail =
    match !last_fail with
    | Some (r : Newton.result) ->
      let where =
        match r.Newton.worst_row with
        | Some k -> Printf.sprintf " at %s" (Circuit.row_name circuit k)
        | None -> ""
      in
      Printf.sprintf
        "%s: %d iterations, residual %.3g%s (trajectory %s)" detail
        r.Newton.iterations r.Newton.residual_norm where
        (Newton.history_string r.Newton.residual_history)
    | None -> detail
  in
  raise (No_convergence detail)

(* The DC fallback ladder (docs/robustness.md): plain Newton, then
   harder damping, then gmin stepping, then source stepping.  Each rung
   is recorded as an Obs span + ladder counter so a recovered deck
   shows in --metrics which rung saved it. *)
let solve_at ?(options = default_options) ?solver ?(policy = Retry.default)
    ?budget ?x0 ~t circuit =
  Obs.span "dc.solve" @@ fun () ->
  Obs.count "dc.solves" 1;
  let n = Circuit.size circuit in
  let sys = Linsys.make ?solver circuit in
  let singular = ref None in
  let last_fail = ref None in
  let attempt =
    attempt circuit ~sys ~singular ~last_fail ~options ~budget ~policy ~t
  in
  let x0 = match x0 with Some x -> Vec.copy x | None -> Vec.create n in
  (* 1. plain Newton with just the residual gmin *)
  let r =
    Obs.span "dc.rung.plain" @@ fun () ->
    Retry.rung "dc.plain";
    attempt ~gmin:options.gmin_final ~src_scale:1.0 ~max_step:0.5 ~x0
  in
  if r.Newton.converged then r.Newton.x
  else if not policy.Retry.allow_homotopy then
    fail circuit singular last_fail "DC operating point (strict)"
  else begin
    (* 2. harder damping: shrink the step clamp by [backoff] per retry,
       restarting from the same initial point *)
    let damped () =
      let found = ref None in
      let max_step = ref 0.5 in
      let tries = ref 0 in
      while !found = None && !tries < policy.Retry.max_retries do
        Budget.check_opt budget;
        incr tries;
        max_step := !max_step *. policy.Retry.backoff;
        let r =
          Obs.span "dc.rung.damped" @@ fun () ->
          Retry.rung "dc.damped";
          attempt ~gmin:options.gmin_final ~src_scale:1.0 ~max_step:!max_step
            ~x0:(Vec.copy x0)
        in
        if r.Newton.converged then found := Some r.Newton.x
      done;
      !found
    in
    match damped () with
    | Some x -> x
    | None ->
      Budget.check_opt budget;
      (* 3. gmin stepping: decades from 1e-2 down *)
      let x = ref (Vec.create n) in
      let ok = ref true in
      let gmin = ref 1e-2 in
      Obs.span "dc.rung.gmin" (fun () ->
          Retry.rung "dc.gmin";
          while !ok && !gmin > options.gmin_final *. 1.001 do
            Obs.count "dc.gmin_steps" 1;
            let r = attempt ~gmin:!gmin ~src_scale:1.0 ~max_step:0.5 ~x0:!x in
            if r.Newton.converged then begin
              x := r.Newton.x;
              gmin := Float.max (!gmin /. 10.0) options.gmin_final
            end
            else ok := false
          done);
      if !ok then begin
        let r =
          attempt ~gmin:options.gmin_final ~src_scale:1.0 ~max_step:0.5 ~x0:!x
        in
        if r.Newton.converged then r.Newton.x
        else fail circuit singular last_fail "gmin final"
      end
      else begin
        Budget.check_opt budget;
        (* 4. source stepping from 0 to 1 with a soft gmin *)
        let x = ref (Vec.create n) in
        let steps = 20 in
        Obs.span "dc.rung.source" (fun () ->
            Retry.rung "dc.source";
            for k = 1 to steps do
              Obs.count "dc.source_steps" 1;
              let scale = float_of_int k /. float_of_int steps in
              let r =
                attempt ~gmin:1e-9 ~src_scale:scale ~max_step:0.5 ~x0:!x
              in
              if r.Newton.converged then x := r.Newton.x
              else
                fail circuit singular last_fail
                  (Printf.sprintf "source stepping stalled at scale %.2f" scale)
            done);
        let r =
          attempt ~gmin:options.gmin_final ~src_scale:1.0 ~max_step:0.5 ~x0:!x
        in
        if r.Newton.converged then r.Newton.x
        else fail circuit singular last_fail "DC operating point"
      end
  end

let solve ?options ?solver ?policy ?budget ?x0 circuit =
  solve_at ?options ?solver ?policy ?budget ?x0 ~t:0.0 circuit
