let boltzmann = 1.380649e-23

(* row of a node id, or -1 for ground *)
let row_of_node id = id - 1

let mosfet_op (m : Device.mosfet_instance) vd vg vs =
  Mosfet.eval m.model ~w:m.w ~l:m.l ~dvt:m.dvt ~dbeta:m.dbeta ~vd ~vg ~vs

(* Stamp helpers: same-module and [@inline], so the floats they take
   and return stay unboxed under -opaque (docs/solver.md §8) *)

(* voltage of node [id]; ground is 0 *)
let[@inline] volt x id = if id = 0 then 0.0 else x.(id - 1)

(* residual add; ground rows (-1) are dropped *)
let[@inline] addg g row value = if row >= 0 then g.(row) <- g.(row) +. value

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

(* The CSR sink adds through [slots]: the position in [csr]'s values
   of every off-ground Jacobian add, in stamp order, recorded once by
   [csr_sink].  The order is static — every add fires at any x — except
   the gmin tail, its last [tail] slots.  The recorder keeps each add
   as a triplet. *)
type jac_sink =
  | Dense of Mat.t
  | Sparse of { csr : Csr.t; slots : int array; tail : int }
  | Triplets of Coo.t

let dense_sink m = Dense m
let coo_sink coo = Triplets coo

let clear_sink = function
  | Dense m -> Mat.fill m 0.0
  | Sparse { csr; _ } -> Csr.clear csr
  | Triplets _ -> ()

(* Jacobian add: [value] summed into the entry's float in stamp order
   (the dense sum is Mat.add_to's; the CSR entry is the next recorded
   slot, [cur] counting the adds of this eval) *)
let[@inline] addj jac cur row col value =
  if row >= 0 && col >= 0 then
    match jac with
    | None -> ()
    | Some (Dense m) ->
      let a = m.Mat.a and p = (row * m.Mat.c) + col in
      a.(p) <- a.(p) +. value
    | Some (Sparse { csr; slots; _ }) ->
      let k = !cur in
      cur := k + 1;
      let v = csr.Csr.v and p = slots.(k) in
      v.(p) <- v.(p) +. value
    | Some (Triplets coo) -> Coo.add coo row col value

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
  (match jac with Some s -> clear_sink s | None -> ());
  let cur = ref 0 in
  let branch_row b = n + b in
  Array.iter
    (fun d ->
      match d with
      | Device.Resistor { p; n = nn; r; _ } ->
        let gpn = 1.0 /. r in
        let i = (volt x p -. volt x nn) *. gpn in
        let rp = row_of_node p and rn = row_of_node nn in
        addg g rp i;
        addg g rn (-.i);
        addj jac cur rp rp gpn;
        addj jac cur rp rn (-.gpn);
        addj jac cur rn rp (-.gpn);
        addj jac cur rn rn gpn
      | Device.Capacitor _ -> ()
      | Device.Inductor { p; n = nn; branch; _ } ->
        let rp = row_of_node p and rn = row_of_node nn in
        let br = branch_row branch in
        let ib = x.(br) in
        addg g rp ib;
        addg g rn (-.ib);
        addj jac cur rp br 1.0;
        addj jac cur rn br (-1.0);
        (* branch row: v_p - v_n - L·di/dt = 0; the -L·di/dt part lives
           in the C matrix *)
        addg g br (volt x p -. volt x nn);
        addj jac cur br rp 1.0;
        addj jac cur br rn (-1.0)
      | Device.Vsource { p; n = nn; wave; branch; _ } ->
        let rp = row_of_node p and rn = row_of_node nn in
        let br = branch_row branch in
        let ib = x.(br) in
        addg g rp ib;
        addg g rn (-.ib);
        addj jac cur rp br 1.0;
        addj jac cur rn br (-1.0);
        addg g br (volt x p -. volt x nn -. (src_scale *. Wave.eval wave t));
        addj jac cur br rp 1.0;
        addj jac cur br rn (-1.0)
      | Device.Isource { p; n = nn; wave; _ } ->
        let i = src_scale *. Wave.eval wave t in
        addg g (row_of_node p) i;
        addg g (row_of_node nn) (-.i)
      | Device.Vcvs { p; n = nn; cp; cn; gain; branch; _ } ->
        let rp = row_of_node p and rn = row_of_node nn in
        let rcp = row_of_node cp and rcn = row_of_node cn in
        let br = branch_row branch in
        let ib = x.(br) in
        addg g rp ib;
        addg g rn (-.ib);
        addj jac cur rp br 1.0;
        addj jac cur rn br (-1.0);
        addg g br (volt x p -. volt x nn -. (gain *. (volt x cp -. volt x cn)));
        addj jac cur br rp 1.0;
        addj jac cur br rn (-1.0);
        addj jac cur br rcp (-.gain);
        addj jac cur br rcn gain
      | Device.Vccs { p; n = nn; cp; cn; gm; _ } ->
        let i = gm *. (volt x cp -. volt x cn) in
        let rp = row_of_node p and rn = row_of_node nn in
        let rcp = row_of_node cp and rcn = row_of_node cn in
        addg g rp i;
        addg g rn (-.i);
        addj jac cur rp rcp gm;
        addj jac cur rp rcn (-.gm);
        addj jac cur rn rcp (-.gm);
        addj jac cur rn rcn gm
      | Device.Cccs { p; n = nn; ctrl_branch; gain; _ } ->
        let rp = row_of_node p and rn = row_of_node nn in
        let ctrl_row = branch_row ctrl_branch in
        let i = gain *. x.(ctrl_row) in
        addg g rp i;
        addg g rn (-.i);
        addj jac cur rp ctrl_row gain;
        addj jac cur rn ctrl_row (-.gain)
      | Device.Ccvs { p; n = nn; ctrl_branch; r; branch; _ } ->
        let rp = row_of_node p and rn = row_of_node nn in
        let ctrl_row = branch_row ctrl_branch in
        let br = branch_row branch in
        let ib = x.(br) in
        addg g rp ib;
        addg g rn (-.ib);
        addj jac cur rp br 1.0;
        addj jac cur rn br (-1.0);
        (* branch equation: v_p - v_n - r·i_ctrl = 0 *)
        addg g br (volt x p -. volt x nn -. (r *. x.(ctrl_row)));
        addj jac cur br rp 1.0;
        addj jac cur br rn (-1.0);
        addj jac cur br ctrl_row (-.r)
      | Device.Diode { p; n = nn; is_sat; nf; _ } ->
        let i, gd = diode_iv is_sat nf (volt x p -. volt x nn) in
        let rp = row_of_node p and rn = row_of_node nn in
        addg g rp i;
        addg g rn (-.i);
        addj jac cur rp rp gd;
        addj jac cur rp rn (-.gd);
        addj jac cur rn rp (-.gd);
        addj jac cur rn rn gd
      | Device.Bjt { c; b = nb; e; model; area; dis; _ } ->
        let op = Bjt.eval model ~area ~dis ~vb:(volt x nb) ~ve:(volt x e) in
        let rc = row_of_node c and rb = row_of_node nb and re = row_of_node e in
        addg g rc op.Bjt.ic;
        addg g rb op.Bjt.ib;
        addg g re (-.(op.Bjt.ic +. op.Bjt.ib));
        (* currents depend on vbe only (no Early effect) *)
        addj jac cur rc rb op.Bjt.gm;
        addj jac cur rc re (-.op.Bjt.gm);
        addj jac cur rb rb op.Bjt.gpi;
        addj jac cur rb re (-.op.Bjt.gpi);
        addj jac cur re rb (-.(op.Bjt.gm +. op.Bjt.gpi));
        addj jac cur re re (op.Bjt.gm +. op.Bjt.gpi)
      | Device.Mosfet { d = nd; g = ng; s = ns; inst; _ } ->
        let op = mosfet_op inst (volt x nd) (volt x ng) (volt x ns) in
        let rd = row_of_node nd and rg = row_of_node ng and rs = row_of_node ns in
        addg g rd op.Mosfet.id;
        addg g rs (-.op.Mosfet.id);
        addj jac cur rd rd op.Mosfet.gd;
        addj jac cur rd rg op.Mosfet.gg;
        addj jac cur rd rs op.Mosfet.gs;
        addj jac cur rs rd (-.op.Mosfet.gd);
        addj jac cur rs rg (-.op.Mosfet.gg);
        addj jac cur rs rs (-.op.Mosfet.gs))
    (Circuit.devices circuit);
  if gmin > 0.0 then
    for row = 0 to n - 1 do
      g.(row) <- g.(row) +. (gmin *. x.(row));
      addj jac cur row row gmin
    done;
  match jac with
  | Some (Sparse { slots; tail; _ })
    when !cur <> Array.length slots - (if gmin > 0.0 then 0 else tail) ->
    invalid_arg "Stamp.eval: CSR sink recorded for another add sequence"
  | Some (Sparse _ | Dense _ | Triplets _) | None -> ()

(* One recording eval with gmin on lists every add, gmin tail last;
   each is looked up in the pattern once, here *)
let csr_sink circuit csr =
  let size = Circuit.size circuit in
  let coo = Coo.create ~capacity:(16 * Stdlib.max size 1) size size in
  let x = Array.make size 0.0 and g = Array.make size 0.0 in
  eval circuit ~t:0.0 ~gmin:1.0 ~x ~g ~jac:(Some (Triplets coo)) ();
  let slots = Array.make (Coo.entries coo) 0 in
  let k = ref 0 in
  Coo.iter coo (fun row col _ ->
      slots.(!k) <- Csr.index csr row col;
      incr k);
  Sparse { csr; slots; tail = Circuit.num_nodes circuit }

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
  eval circuit ~t:0.0 ~x ~g ~jac:(Some (Triplets coo)) ();
  stamp_c circuit ~add:(fun row col _ -> Coo.add coo row col 0.0);
  for row = 0 to size - 1 do
    Coo.add coo row row 0.0
  done;
  let pat = Coo.to_csr coo in
  Csr.clear pat;
  pat

let injection circuit (p : Circuit.mismatch_param) ~x ?xdot () =
  let v = volt x in
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
  let v = volt x in
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
