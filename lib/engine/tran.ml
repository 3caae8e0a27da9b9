type scheme = Backward_euler | Trapezoidal

type options = {
  scheme : scheme;
  abstol : float;
  xtol : float;
  max_newton : int;
  gmin : float;
  max_halvings : int;
}

let default_options =
  {
    scheme = Backward_euler;
    abstol = 1e-9;
    xtol = 1e-9;
    max_newton = 40;
    gmin = 1e-12;
    max_halvings = 10;
  }

exception Step_failed of float

(* residual of one implicit step:
   BE:   C(x - x_prev)/h + g(x, t_next) = 0
   trap: C(x - x_prev)/h + (g(x, t_next) + g_prev)/2 = 0 *)
let step ~options ~circuit ~sys ~c_mat ~x_prev ~t_prev ~t_next ?budget ?policy
    ?(forcing = []) () =
  let h = t_next -. t_prev in
  let n = Vec.dim x_prev in
  let g_prev =
    match options.scheme with
    | Backward_euler -> None
    | Trapezoidal ->
      let g = Vec.create n in
      Stamp.eval circuit ~t:t_prev ~gmin:options.gmin ~x:x_prev ~g ~jac:None ();
      Some g
  in
  (* x − x_prev and C·(x − x_prev), rewritten by every Newton iterate *)
  let dx = Vec.create n and cdx = Vec.create n in
  let eval ~x ~g =
    Stamp.eval circuit ~t:t_next ~gmin:options.gmin ~x ~g
      ~jac:(Some sys.Linsys.sink) ();
    (match g_prev, options.scheme with
     | Some gp, Trapezoidal ->
       for i = 0 to n - 1 do
         g.(i) <- 0.5 *. (g.(i) +. gp.(i))
       done;
       (* halve the resistive Jacobian too *)
       (match sys.Linsys.repr with
        | Linsys.Rdense jac ->
          let a = jac.Mat.a in
          for p = 0 to Array.length a - 1 do
            a.(p) <- 0.5 *. a.(p)
          done
        | Linsys.Rsparse { pat; _ } ->
          let v = pat.Csr.v in
          for p = 0 to Array.length v - 1 do
            v.(p) <- 0.5 *. v.(p)
          done)
     | _, Backward_euler | None, Trapezoidal -> ());
    List.iter (fun (row, value) -> g.(row) <- g.(row) +. value) forcing;
    (* add C·(x - x_prev)/h and C/h, indexing the float arrays directly
       (docs/solver.md §8) *)
    for i = 0 to n - 1 do
      dx.(i) <- x.(i) -. x_prev.(i)
    done;
    match sys.Linsys.repr, c_mat with
    | Linsys.Rdense jac, Linsys.Mdense cm ->
      Mat.mul_vec_into cm dx cdx;
      let ja = jac.Mat.a and ca = cm.Mat.a in
      for i = 0 to n - 1 do
        g.(i) <- g.(i) +. (cdx.(i) /. h);
        for j = 0 to n - 1 do
          let p = (i * n) + j in
          ja.(p) <- ja.(p) +. (ca.(p) /. h)
        done
      done
    | Linsys.Rsparse { pat; _ }, Linsys.Msparse { c = cm; at } ->
      Csr.mul_vec_into cm dx cdx;
      for i = 0 to n - 1 do
        g.(i) <- g.(i) +. (cdx.(i) /. h)
      done;
      (* C's entries in row order, each at its recorded pattern slot *)
      let v = cm.Csr.v and pv = pat.Csr.v in
      for p = 0 to Array.length at - 1 do
        let q = at.(p) in
        pv.(q) <- pv.(q) +. (v.(p) /. h)
      done
    | _ -> invalid_arg "Tran.step: c_mat representation mismatch"
  in
  Newton.solve ~eval ~sys ~x0:x_prev ?budget ?policy
    ~max_iter:options.max_newton ~abstol:options.abstol ~xtol:options.xtol
    ~max_step:1.0 ()

(* advance from (t_prev, x_prev) to t_next, halving on Newton failure.
   The ["tran.step"] fault site can kill a step attempt; a killed
   attempt is deterministically re-run up to [policy.max_retries]
   times before the exception escapes. *)
let rec advance ~options ~circuit ~sys ~c_mat ~budget ~policy ~x_prev ~t_prev
    ~t_next ~depth =
  let r =
    let rec attempt tries =
      try
        Faultsim.check_exn "tran.step";
        step ~options ~circuit ~sys ~c_mat ~x_prev ~t_prev ~t_next ?budget
          ~policy ()
      with Faultsim.Injected _ when tries < policy.Retry.max_retries ->
        Retry.rung "tran.retry";
        attempt (tries + 1)
    in
    attempt 0
  in
  if r.Newton.converged then begin
    Obs.count "tran.steps" 1;
    r.Newton.x
  end
  else if depth >= options.max_halvings then raise (Step_failed t_next)
  else begin
    Obs.count "tran.rejected_steps" 1;
    let t_mid = 0.5 *. (t_prev +. t_next) in
    let x_mid =
      advance ~options ~circuit ~sys ~c_mat ~budget ~policy ~x_prev ~t_prev
        ~t_next:t_mid ~depth:(depth + 1)
    in
    advance ~options ~circuit ~sys ~c_mat ~budget ~policy ~x_prev:x_mid
      ~t_prev:t_mid ~t_next ~depth:(depth + 1)
  end

let run ?(options = default_options) ?solver ?(policy = Retry.default) ?budget
    ?x0 ?(record = true) circuit ~tstart ~tstop ~dt () =
  if dt <= 0.0 || tstop <= tstart then invalid_arg "Tran.run: bad time grid";
  Obs.span "tran.run" @@ fun () ->
  Obs.count "tran.runs" 1;
  let sys = Linsys.make ?solver circuit in
  let c_mat = Linsys.c_matrix sys circuit in
  let x0 =
    match x0 with
    | Some x -> Vec.copy x
    | None -> Dc.solve_at ?solver ~policy ?budget ~t:tstart circuit
  in
  let steps = int_of_float (Float.ceil ((tstop -. tstart) /. dt -. 1e-9)) in
  let times = ref [ tstart ] in
  let states = ref [ Vec.copy x0 ] in
  let x = ref x0 in
  let t = ref tstart in
  for k = 1 to steps do
    let t_next = Float.min (tstart +. (float_of_int k *. dt)) tstop in
    Budget.check_opt budget;
    let x_next =
      advance ~options ~circuit ~sys ~c_mat ~budget ~policy ~x_prev:!x
        ~t_prev:!t ~t_next ~depth:0
    in
    x := x_next;
    t := t_next;
    if record || k = steps then begin
      times := t_next :: !times;
      states := Vec.copy x_next :: !states
    end
  done;
  {
    Waveform.circuit;
    times = Array.of_list (List.rev !times);
    states = Array.of_list (List.rev !states);
  }
