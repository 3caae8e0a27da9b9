let boltzmann = 1.380649e-23

(* row of a node id, or -1 for ground *)
let row_of_node id = id - 1

let mosfet_op (m : Device.mosfet_instance) vd vg vs =
  Mosfet.eval m.model ~w:m.w ~l:m.l ~dvt:m.dvt ~dbeta:m.dbeta ~vd ~vg ~vs

let node_voltage x id = if id = 0 then 0.0 else x.(id - 1)

let stamp_c circuit ~add =
  let n = Circuit.num_nodes circuit in
  let stamp_two_terminal p nn value =
    let rp = row_of_node p and rn = row_of_node nn in
    if rp >= 0 then add rp rp value;
    if rn >= 0 then add rn rn value;
    if rp >= 0 && rn >= 0 then begin
      add rp rn (-.value);
      add rn rp (-.value)
    end
  in
  Array.iter
    (fun d ->
      match d with
      | Device.Capacitor { p; n = nn; c = cap; _ } -> stamp_two_terminal p nn cap
      | Device.Inductor { l; branch; _ } ->
        let br = n + branch in
        add br br (-.l)
      | Device.Mosfet { d = nd; g; s; b; inst; _ } ->
        let half_gate = 0.5 *. Mosfet.gate_cap inst.model ~w:inst.w ~l:inst.l in
        let cov = inst.model.Mosfet.cov *. inst.w in
        let cj = Mosfet.junction_cap inst.model ~w:inst.w in
        stamp_two_terminal g s (half_gate +. cov);
        stamp_two_terminal g nd (half_gate +. cov);
        stamp_two_terminal nd b cj;
        stamp_two_terminal s b cj
      | Device.Resistor _ | Device.Vsource _ | Device.Isource _
      | Device.Vcvs _ | Device.Vccs _ | Device.Cccs _ | Device.Ccvs _
      | Device.Diode _ | Device.Bjt _ -> ())
    (Circuit.devices circuit)

let c_matrix circuit =
  let size = Circuit.size circuit in
  let c = Mat.create size size in
  stamp_c circuit ~add:(Mat.add_to c);
  c

(* Coo.to_csr sums duplicates in stamp order from 0.0, as Mat.add_to
   does, and drop_zeros applies of_dense's rule: the result equals
   [Csr.of_dense (c_matrix circuit)] without the n×n detour *)
let c_csr circuit =
  let size = Circuit.size circuit in
  let coo = Coo.create ~capacity:(4 * Stdlib.max size 1) size size in
  stamp_c circuit ~add:(Coo.add coo);
  Csr.drop_zeros (Coo.to_csr coo)

type jac_sink = {
  js_clear : unit -> unit;
  js_add : int -> int -> float -> unit;
}

let dense_sink m =
  { js_clear = (fun () -> Mat.fill m 0.0); js_add = Mat.add_to m }

let csr_sink c = { js_clear = (fun () -> Csr.clear c); js_add = Csr.add c }

(* diode current with exponent limiting to keep Newton finite *)
let diode_iv is_sat nf v =
  let phi = 0.02585 *. nf in
  let u = v /. phi in
  if u > 40.0 then begin
    let e = exp 40.0 in
    let i = is_sat *. ((e *. (1.0 +. (u -. 40.0))) -. 1.0) in
    let gd = is_sat *. e /. phi in
    (i, gd)
  end
  else begin
    let e = exp u in
    (is_sat *. (e -. 1.0), is_sat *. e /. phi)
  end

let eval circuit ~t ?(gmin = 0.0) ?(src_scale = 1.0) ~x ~g ~jac () =
  let n = Circuit.num_nodes circuit in
  Vec.fill g 0.0;
  (match jac with Some s -> s.js_clear () | None -> ());
  let v = node_voltage x in
  let addg row value = if row >= 0 then g.(row) <- g.(row) +. value in
  let addj =
    match jac with
    | Some s ->
      fun row col value -> if row >= 0 && col >= 0 then s.js_add row col value
    | None -> fun _ _ _ -> ()
  in
  let branch_row b = n + b in
  Array.iter
    (fun d ->
      match d with
      | Device.Resistor { p; n = nn; r; _ } ->
        let gpn = 1.0 /. r in
        let i = (v p -. v nn) *. gpn in
        let rp = row_of_node p and rn = row_of_node nn in
        addg rp i;
        addg rn (-.i);
        addj rp rp gpn;
        addj rp rn (-.gpn);
        addj rn rp (-.gpn);
        addj rn rn gpn
      | Device.Capacitor _ -> ()
      | Device.Inductor { p; n = nn; branch; _ } ->
        let rp = row_of_node p and rn = row_of_node nn in
        let br = branch_row branch in
        let ib = x.(br) in
        addg rp ib;
        addg rn (-.ib);
        addj rp br 1.0;
        addj rn br (-1.0);
        (* branch row: v_p - v_n - L·di/dt = 0; the -L·di/dt part lives
           in the C matrix *)
        addg br (v p -. v nn);
        addj br rp 1.0;
        addj br rn (-1.0)
      | Device.Vsource { p; n = nn; wave; branch; _ } ->
        let rp = row_of_node p and rn = row_of_node nn in
        let br = branch_row branch in
        let ib = x.(br) in
        addg rp ib;
        addg rn (-.ib);
        addj rp br 1.0;
        addj rn br (-1.0);
        addg br (v p -. v nn -. (src_scale *. Wave.eval wave t));
        addj br rp 1.0;
        addj br rn (-1.0)
      | Device.Isource { p; n = nn; wave; _ } ->
        let i = src_scale *. Wave.eval wave t in
        addg (row_of_node p) i;
        addg (row_of_node nn) (-.i)
      | Device.Vcvs { p; n = nn; cp; cn; gain; branch; _ } ->
        let rp = row_of_node p and rn = row_of_node nn in
        let rcp = row_of_node cp and rcn = row_of_node cn in
        let br = branch_row branch in
        let ib = x.(br) in
        addg rp ib;
        addg rn (-.ib);
        addj rp br 1.0;
        addj rn br (-1.0);
        addg br (v p -. v nn -. (gain *. (v cp -. v cn)));
        addj br rp 1.0;
        addj br rn (-1.0);
        addj br rcp (-.gain);
        addj br rcn gain
      | Device.Vccs { p; n = nn; cp; cn; gm; _ } ->
        let i = gm *. (v cp -. v cn) in
        let rp = row_of_node p and rn = row_of_node nn in
        let rcp = row_of_node cp and rcn = row_of_node cn in
        addg rp i;
        addg rn (-.i);
        addj rp rcp gm;
        addj rp rcn (-.gm);
        addj rn rcp (-.gm);
        addj rn rcn gm
      | Device.Cccs { p; n = nn; ctrl_branch; gain; _ } ->
        let rp = row_of_node p and rn = row_of_node nn in
        let ctrl_row = branch_row ctrl_branch in
        let i = gain *. x.(ctrl_row) in
        addg rp i;
        addg rn (-.i);
        addj rp ctrl_row gain;
        addj rn ctrl_row (-.gain)
      | Device.Ccvs { p; n = nn; ctrl_branch; r; branch; _ } ->
        let rp = row_of_node p and rn = row_of_node nn in
        let ctrl_row = branch_row ctrl_branch in
        let br = branch_row branch in
        let ib = x.(br) in
        addg rp ib;
        addg rn (-.ib);
        addj rp br 1.0;
        addj rn br (-1.0);
        (* branch equation: v_p - v_n - r·i_ctrl = 0 *)
        addg br (v p -. v nn -. (r *. x.(ctrl_row)));
        addj br rp 1.0;
        addj br rn (-1.0);
        addj br ctrl_row (-.r)
      | Device.Diode { p; n = nn; is_sat; nf; _ } ->
        let i, gd = diode_iv is_sat nf (v p -. v nn) in
        let rp = row_of_node p and rn = row_of_node nn in
        addg rp i;
        addg rn (-.i);
        addj rp rp gd;
        addj rp rn (-.gd);
        addj rn rp (-.gd);
        addj rn rn gd
      | Device.Bjt { c; b = nb; e; model; area; dis; _ } ->
        let op = Bjt.eval model ~area ~dis ~vb:(v nb) ~ve:(v e) in
        let rc = row_of_node c and rb = row_of_node nb and re = row_of_node e in
        addg rc op.Bjt.ic;
        addg rb op.Bjt.ib;
        addg re (-.(op.Bjt.ic +. op.Bjt.ib));
        (* currents depend on vbe only (no Early effect) *)
        addj rc rb op.Bjt.gm;
        addj rc re (-.op.Bjt.gm);
        addj rb rb op.Bjt.gpi;
        addj rb re (-.op.Bjt.gpi);
        addj re rb (-.(op.Bjt.gm +. op.Bjt.gpi));
        addj re re (op.Bjt.gm +. op.Bjt.gpi)
      | Device.Mosfet { d = nd; g = ng; s = ns; inst; _ } ->
        let op = mosfet_op inst (v nd) (v ng) (v ns) in
        let rd = row_of_node nd and rg = row_of_node ng and rs = row_of_node ns in
        addg rd op.Mosfet.id;
        addg rs (-.op.Mosfet.id);
        addj rd rd op.Mosfet.gd;
        addj rd rg op.Mosfet.gg;
        addj rd rs op.Mosfet.gs;
        addj rs rd (-.op.Mosfet.gd);
        addj rs rg (-.op.Mosfet.gg);
        addj rs rs (-.op.Mosfet.gs))
    (Circuit.devices circuit);
  if gmin > 0.0 then
    for row = 0 to n - 1 do
      g.(row) <- g.(row) +. (gmin *. x.(row));
      addj row row gmin
    done

(* The MNA pattern is fixed by topology: every [addj]/[stamp_c] call
   site fires regardless of bias, so one evaluation at x = 0 records the
   full structure.  The diagonal is added in full — voltage-source
   branch rows have structurally zero diagonals, and keeping the
   positions lets gmin homotopy and C/h stamping reuse the pattern. *)
let pattern circuit =
  let size = Circuit.size circuit in
  let coo = Coo.create ~capacity:(16 * Stdlib.max size 1) size size in
  let x = Array.make size 0.0 in
  let g = Array.make size 0.0 in
  let sink =
    {
      js_clear = (fun () -> ());
      js_add = (fun row col _ -> Coo.add coo row col 0.0);
    }
  in
  eval circuit ~t:0.0 ~x ~g ~jac:(Some sink) ();
  stamp_c circuit ~add:(fun row col _ -> Coo.add coo row col 0.0);
  for row = 0 to size - 1 do
    Coo.add coo row row 0.0
  done;
  Coo.to_csr coo

let injection circuit (p : Circuit.mismatch_param) ~x ?xdot () =
  let v = node_voltage x in
  let entries pairs =
    List.filter_map
      (fun (node, value) ->
        let row = row_of_node node in
        if row >= 0 && value <> 0.0 then Some (row, value) else None)
      pairs
  in
  match (Circuit.devices circuit).(p.device_index), p.kind with
  | Device.Mosfet { d; g = ng; s; inst; _ }, Circuit.Delta_vt ->
    let op = mosfet_op inst (v d) (v ng) (v s) in
    entries [ (d, op.Mosfet.di_dvt); (s, -.op.Mosfet.di_dvt) ]
  | Device.Mosfet { d; g = ng; s; inst; _ }, Circuit.Delta_beta ->
    let op = mosfet_op inst (v d) (v ng) (v s) in
    entries [ (d, op.Mosfet.di_dbeta); (s, -.op.Mosfet.di_dbeta) ]
  | Device.Resistor { p = np; n = nn; r; _ }, Circuit.Delta_r ->
    (* r -> r(1+δ): ∂i/∂δ = -(v_p - v_n)/r *)
    let i = (v np -. v nn) /. r in
    entries [ (np, -.i); (nn, i) ]
  | Device.Capacitor { p = np; n = nn; c; _ }, Circuit.Delta_c -> begin
    (* c -> c(1+δ): equivalent current source c·d(v_p - v_n)/dt *)
    match xdot with
    | None -> []
    | Some xd ->
      let vd id = if id = 0 then 0.0 else xd.(id - 1) in
      let i = c *. (vd np -. vd nn) in
      entries [ (np, i); (nn, -.i) ]
    end
  | Device.Bjt { c; b = nb; e; model; area; dis; _ }, Circuit.Delta_is ->
    let op = Bjt.eval model ~area ~dis ~vb:(v nb) ~ve:(v e) in
    entries
      [ (c, op.Bjt.dic_dis); (nb, op.Bjt.dib_dis);
        (e, -.(op.Bjt.dic_dis +. op.Bjt.dib_dis)) ]
  | _,
    (Circuit.Delta_vt | Circuit.Delta_beta | Circuit.Delta_r | Circuit.Delta_c
    | Circuit.Delta_is) ->
    invalid_arg "Stamp.injection: parameter does not match device"

type noise_source = {
  ns_name : string;
  ns_rows : (int * float) list;
  ns_psd : float -> float;
}

let noise_sources circuit ~x ?(temp = 300.0) () =
  let v = node_voltage x in
  let kt4 = 4.0 *. boltzmann *. temp in
  let entries pairs =
    List.filter_map
      (fun (node, value) ->
        let row = row_of_node node in
        if row >= 0 && value <> 0.0 then Some (row, value) else None)
      pairs
  in
  let sources = ref [] in
  Array.iter
    (fun d ->
      match d with
      | Device.Resistor { name; p; n; r; _ } ->
        let psd = kt4 /. r in
        sources :=
          {
            ns_name = name ^ ":thermal";
            ns_rows = entries [ (p, 1.0); (n, -1.0) ];
            ns_psd = (fun _f -> psd);
          }
          :: !sources
      | Device.Mosfet { name; d = nd; g = ng; s = ns; inst; _ } ->
        let op = mosfet_op inst (v nd) (v ng) (v ns) in
        let gm = Float.abs op.Mosfet.gg in
        let psd = kt4 *. (2.0 /. 3.0) *. gm in
        let rows = entries [ (nd, 1.0); (ns, -1.0) ] in
        if psd > 0.0 then begin
          sources :=
            {
              ns_name = name ^ ":thermal";
              ns_rows = rows;
              ns_psd = (fun _f -> psd);
            }
            :: !sources;
          (* flicker: S_id(f) = kf·gm²/(Cox·W·L·f) *)
          let kf = inst.model.Mosfet.kf in
          if kf > 0.0 then begin
            let denom = inst.model.Mosfet.cox *. inst.w *. inst.l in
            let scale = kf *. gm *. gm /. denom in
            sources :=
              {
                ns_name = name ^ ":flicker";
                ns_rows = rows;
                ns_psd = (fun f -> scale /. Float.max f 1e-12);
              }
              :: !sources
          end
        end
      | Device.Capacitor _ | Device.Inductor _ | Device.Vsource _
      | Device.Isource _ | Device.Vcvs _ | Device.Vccs _ | Device.Cccs _
      | Device.Ccvs _ | Device.Diode _ | Device.Bjt _ -> ())
    (Circuit.devices circuit);
  List.rev !sources
