type input =
  | Vsource of string
  | Isource of string
  | Injection of (int * float) list

type repr =
  | Adense of { g_mat : Mat.t; c_mat : Mat.t }
  | Asparse of asparse

and asparse = {
  pat : Csr.t; (* pattern; v holds the stamped G values *)
  c_vals : float array; (* C values aligned with pat's storage *)
  mutable plan : Csplu.plan option;
}

type t = {
  circuit : Circuit.t;
  x_op : Vec.t;
  repr : repr;
}

let prepare ?x_op circuit =
  let x_op = match x_op with Some x -> x | None -> Dc.solve circuit in
  let n = Circuit.size circuit in
  let g = Vec.create n in
  let repr =
    match Linsys.solver_for n with
    | Linsys.Sparse | Linsys.Krylov ->
      let pat = Stamp.pattern circuit in
      Stamp.eval circuit ~t:0.0 ~x:x_op ~g
        ~jac:(Some (Stamp.csr_sink circuit pat)) ();
      let c_vals = Array.make (Csr.nnz pat) 0.0 in
      Stamp.stamp_c circuit ~add:(fun i j v ->
          let p = Csr.index pat i j in
          c_vals.(p) <- c_vals.(p) +. v);
      Asparse { pat; c_vals; plan = None }
    | Linsys.Dense ->
      let g_mat = Mat.create n n in
      Stamp.eval circuit ~t:0.0 ~x:x_op ~g ~jac:(Some (Stamp.dense_sink g_mat))
        ();
      Adense { g_mat; c_mat = Stamp.c_matrix circuit }
  in
  { circuit; x_op; repr }

let operating_point t = t.x_op

(* build the aligned complex values of G + jωC and factorize, planning
   lazily on the first frequency and re-planning once if the recorded
   pivot order goes stale at a very different ω *)
let sparse_factorize (s : asparse) ~freq =
  let omega = 2.0 *. Float.pi *. freq in
  let gv = s.pat.Csr.v in
  let zvals =
    { Cvec.re = Array.copy gv; im = Array.map (fun c -> omega *. c) s.c_vals }
  in
  let plan =
    match s.plan with
    | Some p -> p
    | None ->
      let p = Linsys.plan s.pat zvals in
      s.plan <- Some p;
      p
  in
  match Csplu.factorize plan s.pat zvals with
  | f -> f
  | exception Csplu.Singular _ ->
    let p = Linsys.plan s.pat zvals in
    s.plan <- Some p;
    Csplu.factorize p s.pat zvals

let rhs_of_input t input =
  let n = Circuit.size t.circuit in
  let rhs = Cvec.create n in
  (* real right-hand sides: the imaginary half stays +0.0 *)
  (match input with
   | Vsource name ->
     let br = Circuit.branch_row t.circuit name in
     rhs.re.(br) <- 1.0
   | Isource name -> begin
     match (Circuit.devices t.circuit).(Circuit.device_index t.circuit name) with
     | Device.Isource { p; n = nn; _ } ->
       if p > 0 then rhs.re.(p - 1) <- -1.0;
       if nn > 0 then rhs.re.(nn - 1) <- 1.0
     | _ -> invalid_arg "Ac: not a current source"
     end
   | Injection rows ->
     List.iter (fun (row, v) -> rhs.re.(row) <- rhs.re.(row) +. v) rows);
  rhs

let solve t ~freq ~input =
  match t.repr with
  | Adense { g_mat; c_mat } ->
    let omega = 2.0 *. Float.pi *. freq in
    let n = Circuit.size t.circuit in
    let m =
      Cmat.init n n (fun i j ->
          Cx.mk (Mat.get g_mat i j) (omega *. Mat.get c_mat i j))
    in
    Clu.solve_dense m (rhs_of_input t input)
  | Asparse s ->
    let f = sparse_factorize s ~freq in
    Csplu.solve f (rhs_of_input t input)

let transfer t ~freq ~input ~output =
  let y = solve t ~freq ~input in
  Cvec.get y (Circuit.node_row t.circuit output)

let output_impedance t ~freq ~node =
  let row = Circuit.node_row t.circuit node in
  let y = solve t ~freq ~input:(Injection [ (row, 1.0) ]) in
  Cvec.get y row

let adjoint t ~freq ~output =
  let n = Circuit.size t.circuit in
  let e = Cvec.create n in
  e.re.(Circuit.node_row t.circuit output) <- 1.0;
  match t.repr with
  | Adense { g_mat; c_mat } ->
    let omega = 2.0 *. Float.pi *. freq in
    let m =
      Cmat.init n n (fun i j ->
          Cx.mk (Mat.get g_mat i j) (omega *. Mat.get c_mat i j))
    in
    let lu = Clu.factorize m in
    Clu.solve_transpose lu e
  | Asparse s ->
    let f = sparse_factorize s ~freq in
    Csplu.solve_transpose f e
