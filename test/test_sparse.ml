(* Tests for the sparse solver stack: Coo assembly, Csr kernels,
   Symbolic orderings, and Splu/Csplu against the dense references.
   Engine-level sparse-vs-dense parity lives at the bottom; the QCheck
   generators build random RCL+MOSFET circuits. *)

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* ------------------------------------------------------------------ Coo *)

let test_coo_duplicate_summing () =
  let a = Coo.create 3 3 in
  Coo.add a 0 0 1.0;
  Coo.add a 2 1 5.0;
  Coo.add a 0 0 2.5;
  Coo.add a 1 2 (-1.0);
  Coo.add a 2 1 (-5.0);
  Coo.add a 0 0 0.5;
  Alcotest.(check int) "raw entries" 6 (Coo.entries a);
  let c = Coo.to_csr a in
  Alcotest.(check int) "merged nnz" 3 (Csr.nnz c);
  check_float "summed" 4.0 (Csr.get c 0 0);
  check_float "cancelled kept" 0.0 (Csr.get c 2 1);
  check_float "lone" (-1.0) (Csr.get c 1 2);
  check_float "absent" 0.0 (Csr.get c 1 1)

let test_coo_sorted_columns () =
  let a = Coo.create 2 5 in
  List.iter (fun j -> Coo.add a 0 j (float_of_int j)) [ 4; 0; 3; 1 ];
  let c = Coo.to_csr a in
  let prev = ref (-1) in
  for p = c.Csr.rp.(0) to c.Csr.rp.(1) - 1 do
    Alcotest.(check bool) "ascending columns" true (c.Csr.ci.(p) > !prev);
    prev := c.Csr.ci.(p)
  done

let test_coo_out_of_range () =
  let a = Coo.create 2 2 in
  Alcotest.check_raises "row range" (Invalid_argument "Coo.add") (fun () ->
      Coo.add a 2 0 1.0)

(* ------------------------------------------------------------------ Csr *)

let random_sparse rng n ~fill =
  let m = Mat.create n n in
  for i = 0 to n - 1 do
    (* strong diagonal keeps the fixed-pivot replay well-conditioned *)
    Mat.set m i i (Rng.uniform_range rng 1.0 2.0);
    for j = 0 to n - 1 do
      if i <> j && Rng.uniform rng < fill then
        Mat.set m i j (Rng.uniform_range rng (-1.0) 1.0)
    done
  done;
  m

let test_csr_matvec () =
  let rng = Rng.create 11 in
  for _trial = 1 to 10 do
    let n = 1 + Rng.int rng 20 in
    let m = random_sparse rng n ~fill:0.3 in
    let c = Csr.of_dense m in
    let x = Array.init n (fun _ -> Rng.uniform_range rng (-1.0) 1.0) in
    let yd = Mat.mul_vec m x and ys = Csr.mul_vec c x in
    Alcotest.(check bool) "mul_vec" true (Vec.dist_inf yd ys < 1e-12);
    let ytd = Mat.tmul_vec m x in
    let yts = Array.make n 0.0 in
    Csr.tmul_vec_into c x yts;
    Alcotest.(check bool) "tmul_vec" true (Vec.dist_inf ytd yts < 1e-12)
  done

(* ------------------------------------------------------------- Symbolic *)

let check_permutation n q =
  Alcotest.(check int) "length" n (Array.length q);
  let seen = Array.make n false in
  Array.iter
    (fun j ->
      Alcotest.(check bool) "in range" true (j >= 0 && j < n);
      Alcotest.(check bool) "no repeat" false seen.(j);
      seen.(j) <- true)
    q

let test_symbolic_permutation () =
  let rng = Rng.create 23 in
  for _trial = 1 to 10 do
    let n = 1 + Rng.int rng 30 in
    let m = random_sparse rng n ~fill:0.15 in
    let c = Csr.of_dense m in
    let sym = Symbolic.analyze ~ordering:Symbolic.Rcm c in
    check_permutation n sym.Symbolic.q;
    let nat = Symbolic.analyze ~ordering:Symbolic.Natural c in
    check_permutation n nat.Symbolic.q;
    Array.iteri
      (fun k j -> Alcotest.(check int) "natural is identity" k j)
      nat.Symbolic.q
  done

let test_symbolic_disconnected () =
  (* block-diagonal pattern: RCM must still order every component *)
  let a = Coo.create 6 6 in
  List.iter
    (fun (i, j) ->
      Coo.add a i j 1.0;
      Coo.add a j i 1.0)
    [ (0, 1); (2, 3); (4, 5) ];
  for i = 0 to 5 do
    Coo.add a i i 2.0
  done;
  let sym = Symbolic.analyze (Coo.to_csr a) in
  check_permutation 6 sym.Symbolic.q

(* ----------------------------------------------------------------- Splu *)

let residual_ok ?(tol = 1e-8) m x b =
  let r = Mat.mul_vec m x in
  let nb = Float.max (Vec.norm_inf b) 1e-30 in
  Vec.dist_inf r b /. nb < tol

let test_splu_vs_dense () =
  let rng = Rng.create 42 in
  for _trial = 1 to 20 do
    let n = 1 + Rng.int rng 25 in
    let m = random_sparse rng n ~fill:0.25 in
    let c = Csr.of_dense m in
    let p = Splu.plan c in
    let f = Splu.factorize p c in
    let b = Array.init n (fun _ -> Rng.uniform_range rng (-1.0) 1.0) in
    let xs = Splu.solve f b in
    let xd = Lu.solve_dense m b in
    Alcotest.(check bool) "solve matches dense" true
      (Vec.dist_inf xs xd < 1e-8 *. Float.max 1.0 (Vec.norm_inf xd));
    Alcotest.(check bool) "residual" true (residual_ok m xs b);
    let xt = Splu.solve_transpose f b in
    let xtd = Lu.solve_transpose (Lu.factorize m) b in
    Alcotest.(check bool) "transpose matches dense" true
      (Vec.dist_inf xt xtd < 1e-8 *. Float.max 1.0 (Vec.norm_inf xtd))
  done

let test_splu_zero_diagonal () =
  (* MNA-style: a voltage-source branch row has a structurally zero
     diagonal, so the plan must pivot off-diagonal *)
  let m =
    Mat.of_arrays
      [|
        [| 1.0; 0.0; 1.0 |];
        [| 0.0; 2.0; -1.0 |];
        [| 1.0; -1.0; 0.0 |];
      |]
  in
  let c = Csr.of_dense m in
  let f = Splu.factorize (Splu.plan c) c in
  let b = [| 1.0; 2.0; 3.0 |] in
  let x = Splu.solve f b in
  Alcotest.(check bool) "residual" true (residual_ok m x b)

let test_splu_refactorize () =
  let rng = Rng.create 77 in
  for _trial = 1 to 10 do
    let n = 2 + Rng.int rng 20 in
    let m = random_sparse rng n ~fill:0.25 in
    let c = Csr.of_dense m in
    let f = Splu.factorize (Splu.plan c) c in
    (* same pattern, different values: rescale every stored entry *)
    for p = 0 to Csr.nnz c - 1 do
      c.Csr.v.(p) <- c.Csr.v.(p) *. Rng.uniform_range rng 0.5 1.5
    done;
    Splu.refactorize f ~scratch:(Vec.create n) c;
    let m' = Csr.to_dense c in
    let b = Array.init n (fun _ -> Rng.uniform_range rng (-1.0) 1.0) in
    let x = Splu.solve f b in
    Alcotest.(check bool) "refactorized residual" true
      (residual_ok ~tol:1e-6 m' x b);
    let xt = Splu.solve_transpose f b in
    let xtd = Lu.solve_transpose (Lu.factorize m') b in
    Alcotest.(check bool) "refactorized transpose" true
      (Vec.dist_inf xt xtd < 1e-6 *. Float.max 1.0 (Vec.norm_inf xtd))
  done

let test_splu_singular () =
  let m = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  let c = Csr.of_dense m in
  Alcotest.(check bool) "raises Singular" true
    (match Splu.plan c with
    | _ -> false
    | exception Splu.Singular _ -> true)

(* ---------------------------------------------------------------- Csplu *)

let test_csplu_vs_dense () =
  let rng = Rng.create 99 in
  for _trial = 1 to 10 do
    let n = 1 + Rng.int rng 15 in
    let m = random_sparse rng n ~fill:0.3 in
    let c = Csr.of_dense m in
    let nnz = Csr.nnz c in
    let vals =
      Cvec.init nnz (fun p ->
          Cx.mk c.Csr.v.(p) (Rng.uniform_range rng (-0.5) 0.5))
    in
    let dense = Cmat.create n n in
    for i = 0 to n - 1 do
      for p = c.Csr.rp.(i) to c.Csr.rp.(i + 1) - 1 do
        Cmat.set dense i c.Csr.ci.(p) (Cvec.get vals p)
      done
    done;
    let f = Csplu.factorize (Csplu.plan c vals) c vals in
    let b = Cvec.init n (fun _ ->
        Cx.mk (Rng.uniform_range rng (-1.0) 1.0)
          (Rng.uniform_range rng (-1.0) 1.0))
    in
    let xs = Csplu.solve f b in
    let xd = Clu.solve_dense dense b in
    let err = ref 0.0 and scale = ref 1.0 in
    for i = 0 to n - 1 do
      err :=
        Float.max !err (Cx.abs (Cx.( -: ) (Cvec.get xs i) (Cvec.get xd i)));
      scale := Float.max !scale (Cx.abs (Cvec.get xd i))
    done;
    Alcotest.(check bool) "complex solve matches dense" true
      (!err < 1e-8 *. !scale);
    let xts = Csplu.solve_transpose f b in
    let xtd = Clu.solve_transpose (Clu.factorize dense) b in
    let terr = ref 0.0 in
    for i = 0 to n - 1 do
      terr :=
        Float.max !terr (Cx.abs (Cx.( -: ) (Cvec.get xts i) (Cvec.get xtd i)))
    done;
    Alcotest.(check bool) "complex transpose matches dense" true
      (!terr < 1e-8 *. !scale)
  done

(* ------------------------------------ engine-level parity (QCheck) *)

(* Random RC ladder behind a voltage source (the branch row gives the
   MNA matrix a structurally zero diagonal, so the sparse LU must
   pivot off-diagonal) plus a MOSFET load for nonlinearity.  All sizes
   here are far below [Linsys.auto_threshold], so the solver regimes
   are forced explicitly. *)
let random_mna_circuit rng n =
  let b = Builder.create () in
  Builder.vdc b "VDD" "vdd" "0" 1.2;
  for k = 1 to n do
    let nk = Printf.sprintf "n%d" k in
    let prev = if k = 1 then "vdd" else Printf.sprintf "n%d" (k - 1) in
    Builder.resistor b (Printf.sprintf "Rs%d" k) prev nk
      (Rng.uniform_range rng 100.0 10e3);
    Builder.resistor b (Printf.sprintf "Rp%d" k) nk "0"
      (Rng.uniform_range rng 1e3 50e3);
    Builder.capacitor b (Printf.sprintf "Cp%d" k) nk "0"
      (Rng.uniform_range rng 0.1e-12 1e-12)
  done;
  let mid = Printf.sprintf "n%d" (1 + (n / 2)) in
  Builder.mosfet b "M1" ~d:"vdd" ~g:mid ~s:"0" ~model:Mosfet.nmos_013
    ~w:2e-6 ~l:0.13e-6 ();
  b

let rel_dist_inf a b =
  let err = ref 0.0 and scale = ref 1.0 in
  Array.iteri
    (fun i ai ->
      err := Float.max !err (Float.abs (ai -. b.(i)));
      scale := Float.max !scale (Float.abs ai))
    a;
  !err /. !scale

let prop_dc_parity =
  QCheck.Test.make ~count:30 ~name:"DC solve: sparse backend matches dense"
    QCheck.(pair (int_bound 10_000) (int_range 2 8))
    (fun (seed, n) ->
      let c = Builder.finish (random_mna_circuit (Rng.create (seed + 7)) n) in
      let xd = Dc.solve ~solver:Linsys.Dense c in
      let xs = Dc.solve ~solver:Linsys.Sparse c in
      rel_dist_inf xd xs < 1e-9)

let prop_tran_parity =
  QCheck.Test.make ~count:15
    ~name:"transient steps: sparse backend matches dense"
    QCheck.(pair (int_bound 10_000) (int_range 2 6))
    (fun (seed, n) ->
      let c =
        let b = random_mna_circuit (Rng.create (seed + 11)) n in
        Builder.isource b "Iin" "0" "n1"
          (Wave.Sin
             { Wave.offset = 0.0; ampl = 1e-4; freq = 1e7; phase_deg = 0.0 });
        Builder.finish b
      in
      let run solver =
        Tran.run ~solver c ~tstart:0.0 ~tstop:2e-7 ~dt:1e-8 ()
      in
      let wd = run Linsys.Dense and ws = run Linsys.Sparse in
      let last = Waveform.length wd - 1 in
      Waveform.length ws = Waveform.length wd
      && rel_dist_inf wd.Waveform.states.(last) ws.Waveform.states.(last)
         < 1e-9)

(* End-to-end: LPTV build + adjoint PNOISE on the driven DAC-string
   bench, sparse vs dense.  Mirrors the parity gate of bench/exp_sparse
   at a size the unit tests can afford. *)
let test_pnoise_parity () =
  List.iter
    (fun codes ->
      let params = { Dac_string.default_params with codes } in
      let freq = 1e6 in
      let circuit = Dac_string.testbench ~params ~freq () in
      let pss = Pss.solve ~steps:16 circuit ~period:(1.0 /. freq) in
      let total solver =
        let lptv = Lptv.build ~solver pss ~f_offset:1.0 in
        let sources = Pnoise.mismatch_sources lptv in
        let sb =
          Pnoise.analyze lptv ~output:(Dac_string.tap (codes / 2)) ~harmonic:0
            ~sources
        in
        sb.Pnoise.total_psd
      in
      let d = total Linsys.Dense and s = total Linsys.Sparse in
      Alcotest.(check bool)
        (Printf.sprintf "PNOISE total parity at codes=%d" codes)
        true
        (Float.abs (d -. s) < 1e-9 *. Float.abs d))
    [ 6; 12 ]

(* Every committed deck reads the same operating point under each
   solver regime as under the dense reference.  The decks sit below
   [Linsys.auto_threshold], so production runs them dense; this pins
   the other regimes to them. *)
let committed_decks () =
  let dir = "../decks" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".sp")
  |> List.sort compare
  |> List.map (fun f ->
         (f, (Spice_elab.load_file (Filename.concat dir f)).Spice_elab.circuit))

let test_deck_dc_parity () =
  let decks = committed_decks () in
  Alcotest.(check bool) "decks found" true (decks <> []);
  List.iter
    (fun (f, c) ->
      let xd = Dc.solve ~solver:Linsys.Dense c in
      List.iter
        (fun (name, solver) ->
          let rel = rel_dist_inf xd (Dc.solve ~solver c) in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s within 1e-9 of dense (rel %.2g)" f name rel)
            true (rel < 1e-9))
        [ ("sparse", Linsys.Sparse); ("krylov", Linsys.Krylov) ])
    decks

(* ------------------------------------------- slot-mapped sink, reuse *)

let dac ?freq codes =
  Dac_string.testbench
    ~params:{ Dac_string.default_params with Dac_string.codes } ?freq ()

let sparse_state (sys : Linsys.rsys) =
  match sys.Linsys.repr with
  | Linsys.Rsparse s -> s
  | Linsys.Rdense _ -> Alcotest.fail "expected a sparse system"

(* The lookup the slot map replaced: every Jacobian add of one eval, in
   stamp order, summed into its entry found by Csr.index *)
let csr_index_reference c pat ~gmin ~x =
  let size = Circuit.size c in
  let coo = Coo.create size size in
  Stamp.eval c ~t:1e-7 ~gmin ~x ~g:(Vec.create size)
    ~jac:(Some (Stamp.coo_sink coo)) ();
  let v = Array.make (Csr.nnz pat) 0.0 in
  Coo.iter coo (fun i j value ->
      let p = Csr.index pat i j in
      v.(p) <- v.(p) +. value);
  v

let test_slot_map_parity () =
  let rng = Rng.create 41 in
  List.iter
    (fun (name, c) ->
      let sys = Linsys.make ~solver:Linsys.Sparse c in
      let pat = (sparse_state sys).Linsys.pat in
      let size = Circuit.size c in
      let x_op = Dc.solve ~solver:Linsys.Sparse c in
      let x_rand = Array.init size (fun _ -> Rng.uniform_range rng (-1.0) 1.0) in
      List.iter
        (fun (at, x) ->
          List.iter
            (fun gmin ->
              Stamp.eval c ~t:1e-7 ~gmin ~x ~g:(Vec.create size)
                ~jac:(Some sys.Linsys.sink) ();
              Alcotest.(check bool)
                (Printf.sprintf "%s at %s, gmin %g: values of the Csr.index sum"
                   name at gmin)
                true
                (Vec.bits_equal (csr_index_reference c pat ~gmin ~x)
                   pat.Csr.v))
            [ 0.0; 1e-3 ])
        [ ("the operating point", x_op); ("a random x", x_rand) ])
    (committed_decks () @ [ ("dac64", dac 64); ("dac512", dac 512) ]);
  (* a sink replays its own circuit's add sequence and no other *)
  let c64 = dac 64 and c512 = dac 512 in
  let eval_with c sink_of =
    let size = Circuit.size c in
    Stamp.eval c ~t:0.0 ~x:(Vec.create size) ~g:(Vec.create size)
      ~jac:(Some (Stamp.csr_sink sink_of (Stamp.pattern sink_of))) ()
  in
  List.iter
    (fun (what, c, sink_of) ->
      Alcotest.(check bool) what true
        (match eval_with c sink_of with
         | () -> false
         | exception Invalid_argument _ -> true))
    [ ("a 64-code sink refuses the 512-code adds", c512, c64);
      ("a 512-code sink refuses the 64-code adds", c64, c512) ]

let fact_of = function
  | Linsys.Fsparse f -> f
  | Linsys.Fdense _ -> Alcotest.fail "expected a sparse factor"

(* Reuse hands back the factor of bit-identical values, and only of
   bit-identical values; its solves are a fresh factorization's *)
let test_reuse_bit_exact () =
  let rng = Rng.create 42 in
  let c = dac 64 in
  let size = Circuit.size c in
  let x = Array.init size (fun _ -> Rng.uniform_range rng 0.0 1.0) in
  let b = Array.init size (fun _ -> Rng.gaussian rng) in
  let stamp sys ~gmin =
    Stamp.eval c ~t:1e-7 ~gmin ~x ~g:(Vec.create size)
      ~jac:(Some sys.Linsys.sink) ()
  in
  let sys = Linsys.make ~solver:Linsys.Sparse c in
  stamp sys ~gmin:1e-3;
  let f1 = fact_of (Linsys.factorize sys) in
  stamp sys ~gmin:1e-3;
  let f2 = fact_of (Linsys.factorize sys) in
  Alcotest.(check bool) "same values: the same factor" true (f1 == f2);
  let fresh = Linsys.make ~solver:Linsys.Sparse c in
  stamp fresh ~gmin:1e-3;
  let f3 = fact_of (Linsys.factorize fresh) in
  Alcotest.(check bool) "a fresh system factors anew" true (f3 != f2);
  Alcotest.(check bool) "reused solve = fresh solve, bit for bit" true
    (Vec.bits_equal (Splu.solve f3 b) (Splu.solve f2 b));
  Alcotest.(check bool) "reused transposed solve = fresh, bit for bit" true
    (Vec.bits_equal (Splu.solve_transpose f3 b) (Splu.solve_transpose f2 b));
  (* other values, then the first ones again: compared with the last
     factor only, so a fresh replay — with the same bits as the first *)
  stamp sys ~gmin:2e-3;
  let f4 = fact_of (Linsys.factorize sys) in
  stamp sys ~gmin:1e-3;
  let f5 = fact_of (Linsys.factorize sys) in
  Alcotest.(check bool) "new values: a new factor" true (f4 != f2 && f5 != f4);
  Alcotest.(check bool) "back to the first values: a fresh replay" true
    (f5 != f2 && Vec.bits_equal (Splu.solve f5 b) (Splu.solve f1 b));
  (* bits, not (=): a zero of the other sign is other values, and a NaN
     is the same value as itself *)
  let v = (sparse_state sys).Linsys.pat.Csr.v in
  let z = ref (-1) in
  Array.iteri (fun p vp -> if !z < 0 && vp = 0.0 then z := p) v;
  Alcotest.(check bool) "a stored zero" true (!z >= 0);
  v.(!z) <- -.v.(!z);
  let f6 = fact_of (Linsys.factorize sys) in
  Alcotest.(check bool) "flipped zero sign: a new factor" true (f6 != f5);
  v.(!z) <- Float.nan;
  let f7 = fact_of (Linsys.factorize sys) in
  let f8 = fact_of (Linsys.factorize sys) in
  Alcotest.(check bool) "the same NaN bits: the same factor" true
    (f7 != f6 && f8 == f7)

(* A factor handed out is shared after reuse — the DAC's PSS steps hold
   a few distinct factors between them — and never refilled: later
   factorizations of the same system, at other values, leave every
   kept step factor solving to the same bits *)
let test_kept_factors_not_refilled () =
  let rng = Rng.create 43 in
  let freq = 1e6 in
  let c = dac ~freq 64 in
  let pss =
    Pss.solve ~steps:16 ~solver:Linsys.Krylov c ~period:(1.0 /. freq)
  in
  let facts = Array.map fact_of pss.Pss.step_facts in
  let distinct =
    Array.fold_left
      (fun acc f -> if List.memq f acc then acc else f :: acc)
      [] facts
  in
  Alcotest.(check bool)
    (Printf.sprintf "step factors shared (%d distinct of %d)"
       (List.length distinct) (Array.length facts))
    true
    (List.length distinct < Array.length facts);
  let size = Circuit.size c in
  let b = Array.init size (fun _ -> Rng.gaussian rng) in
  let before = Array.map (fun f -> Splu.solve f b) facts in
  let sys = pss.Pss.sys in
  List.iter
    (fun gmin ->
      let x = Array.init size (fun _ -> Rng.uniform_range rng 0.0 1.0) in
      Stamp.eval c ~t:0.0 ~gmin ~x ~g:(Vec.create size)
        ~jac:(Some sys.Linsys.sink) ();
      ignore (Linsys.factorize sys : Linsys.rfact))
    [ 1e-3; 2e-3; 1e-3 ];
  ignore
    (Tran.run ~solver:Linsys.Krylov c ~tstart:0.0 ~tstop:2e-7 ~dt:1e-8 ()
      : Waveform.t);
  Array.iteri
    (fun k f ->
      Alcotest.(check bool)
        (Printf.sprintf "step %d factor solves to the same bits" (k + 1))
        true
        (Vec.bits_equal before.(k) (Splu.solve f b)))
    facts

(* The "linsys.splu" site is visited on every factorize call, reused or
   not, so a visit-numbered schedule strikes the same call it did
   before factors were reused.  The visit count, the degradation count
   and the final PSS state's bits were read from the code without
   reuse; the state is also the unfaulted run's. *)
let test_reuse_keeps_fault_visits () =
  let freq = 1e6 in
  let c = dac ~freq 64 in
  Faultsim.arm
    [ { Faultsim.site = "linsys.splu"; visit = 3; fault = Faultsim.Singular 0 } ];
  let d0 = Linsys.degradation_count () in
  let pss, visits, degradations =
    Fun.protect ~finally:Faultsim.disarm (fun () ->
        let pss =
          Pss.solve ~steps:16 ~solver:Linsys.Krylov c ~period:(1.0 /. freq)
        in
        (pss, Faultsim.visits "linsys.splu", Linsys.degradation_count () - d0))
  in
  Alcotest.(check int) "linsys.splu visits" 131 visits;
  Alcotest.(check int) "degradations" 1 degradations;
  let x = pss.Pss.states.(pss.Pss.steps) in
  Alcotest.(check string) "final state bits"
    "b1500c6176120c509b47248a0d062b10"
    (Digest.to_hex
       (Digest.string
          (String.concat " "
             (Array.to_list
                (Array.map
                   (fun v -> Int64.to_string (Int64.bits_of_float v))
                   x)))))

(* The LPTV bank's reuse state is made afresh by every run of the loop
   Retry.with_transients re-runs, so after an injected "lptv.factor"
   fault the re-run factors and reuses what a clean build does, on top
   of the aborted run's five steps.  The DAC is linear: one factor
   serves every step *)
let test_lptv_reuse_after_retry () =
  let freq = 1e6 in
  let c = dac ~freq 64 in
  let pss =
    Pss.solve ~steps:16 ~solver:Linsys.Krylov c ~period:(1.0 /. freq)
  in
  let counts faults =
    Obs.enable ();
    Faultsim.arm faults;
    Fun.protect
      ~finally:(fun () ->
        Faultsim.disarm ();
        Obs.disable ())
      (fun () ->
        let f0 = Obs.counter_value "lptv.fact.sparse"
        and r0 = Obs.counter_value "lptv.fact.reused" in
        ignore (Lptv.build ~solver:Linsys.Krylov pss ~f_offset:1.0 : Lptv.t);
        ( Obs.counter_value "lptv.fact.sparse" - f0,
          Obs.counter_value "lptv.fact.reused" - r0 ))
  in
  let clean = counts [] in
  Alcotest.(check (pair int int)) "clean build: factored, reused" (1, 15) clean;
  Alcotest.(check (pair int int))
    "after a fault at visit 5: the aborted 1 + 4, then a clean build"
    (fst clean + 1, snd clean + 4)
    (counts
       [ { Faultsim.site = "lptv.factor"; visit = 5;
           fault = Faultsim.Exn "injected" } ])

let () =
  Alcotest.run "sparse"
    [
      ( "coo",
        [
          Alcotest.test_case "duplicate summing" `Quick
            test_coo_duplicate_summing;
          Alcotest.test_case "sorted columns" `Quick test_coo_sorted_columns;
          Alcotest.test_case "out of range" `Quick test_coo_out_of_range;
        ] );
      ( "csr",
        [ Alcotest.test_case "matvec vs dense" `Quick test_csr_matvec ] );
      ( "symbolic",
        [
          Alcotest.test_case "permutation validity" `Quick
            test_symbolic_permutation;
          Alcotest.test_case "disconnected components" `Quick
            test_symbolic_disconnected;
        ] );
      ( "splu",
        [
          Alcotest.test_case "solve vs dense" `Quick test_splu_vs_dense;
          Alcotest.test_case "zero diagonal pivoting" `Quick
            test_splu_zero_diagonal;
          Alcotest.test_case "refactorize same pattern" `Quick
            test_splu_refactorize;
          Alcotest.test_case "singular detection" `Quick test_splu_singular;
        ] );
      ( "csplu",
        [ Alcotest.test_case "solve vs dense" `Quick test_csplu_vs_dense ] );
      ( "engine parity",
        QCheck_alcotest.to_alcotest prop_dc_parity
        :: QCheck_alcotest.to_alcotest prop_tran_parity
        :: [ Alcotest.test_case "pnoise totals" `Quick test_pnoise_parity;
             Alcotest.test_case "committed decks DC" `Quick test_deck_dc_parity;
           ] );
      ( "slots, reuse",
        [
          Alcotest.test_case "slot map = Csr.index sum" `Quick
            test_slot_map_parity;
          Alcotest.test_case "reuse is bit-exact" `Quick test_reuse_bit_exact;
          Alcotest.test_case "kept factors never refilled" `Quick
            test_kept_factors_not_refilled;
          Alcotest.test_case "fault visits unchanged" `Quick
            test_reuse_keeps_fault_visits;
          Alcotest.test_case "lptv reuse restarts with a retry" `Quick
            test_lptv_reuse_after_retry;
        ] );
    ]
