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
    Splu.refactorize f c;
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
let test_deck_dc_parity () =
  let dir = "../decks" in
  let decks =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".sp")
    |> List.sort compare
  in
  Alcotest.(check bool) "decks found" true (decks <> []);
  List.iter
    (fun f ->
      let c = (Spice_elab.load_file (Filename.concat dir f)).Spice_elab.circuit in
      let xd = Dc.solve ~solver:Linsys.Dense c in
      List.iter
        (fun (name, solver) ->
          let rel = rel_dist_inf xd (Dc.solve ~solver c) in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s within 1e-9 of dense (rel %.2g)" f name rel)
            true (rel < 1e-9))
        [ ("sparse", Linsys.Sparse); ("krylov", Linsys.Krylov) ])
    decks

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
    ]
