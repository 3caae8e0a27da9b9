(* Unit and property tests for the numeric substrate. *)

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* ------------------------------------------------------------------ Vec *)

let test_vec_basics () =
  let x = Vec.of_list [ 1.0; -2.0; 3.0 ] in
  let y = Vec.of_list [ 0.5; 0.5; 0.5 ] in
  check_float "dot" 1.0 (Vec.dot x y);
  check_float "norm2" (sqrt 14.0) (Vec.norm2 x);
  check_float "norm_inf" 3.0 (Vec.norm_inf x);
  Alcotest.(check int) "max_abs_index" 2 (Vec.max_abs_index x);
  let z = Vec.add x y in
  check_float "add" 1.5 z.(0);
  Vec.axpy 2.0 y z;
  check_float "axpy" 2.5 z.(0);
  check_float "dist_inf" 0.0 (Vec.dist_inf x x)

let test_vec_basis () =
  let e = Vec.basis 4 2 in
  check_float "basis nonzero" 1.0 e.(2);
  check_float "basis zero" 0.0 e.(0)

(* ------------------------------------------------------------------ Mat *)

let test_mat_mul () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Mat.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let c = Mat.mul a b in
  check_float "c00" 2.0 (Mat.get c 0 0);
  check_float "c01" 1.0 (Mat.get c 0 1);
  check_float "c10" 4.0 (Mat.get c 1 0);
  check_float "c11" 3.0 (Mat.get c 1 1)

let test_mat_vec () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let x = [| 1.0; 1.0 |] in
  let y = Mat.mul_vec a x in
  check_float "mul_vec 0" 3.0 y.(0);
  check_float "mul_vec 1" 7.0 y.(1);
  let yt = Mat.tmul_vec a x in
  check_float "tmul_vec 0" 4.0 yt.(0);
  check_float "tmul_vec 1" 6.0 yt.(1)

let test_mat_transpose () =
  let a = Mat.of_arrays [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  let t = Mat.transpose a in
  Alcotest.(check int) "rows" 3 (Mat.rows t);
  check_float "t21" 6.0 (Mat.get t 2 1)

(* ------------------------------------------------------------------- Lu *)

let random_matrix rng n =
  Mat.init n n (fun _ _ -> Rng.uniform_range rng (-1.0) 1.0)

let test_lu_solve () =
  let rng = Rng.create 7 in
  for _trial = 1 to 20 do
    let n = 1 + Rng.int rng 12 in
    let a = random_matrix rng n in
    (* diagonal boost keeps the random matrix well-conditioned *)
    for i = 0 to n - 1 do
      Mat.add_to a i i 4.0
    done;
    let x_true = Rng.gaussian_vector rng n in
    let b = Mat.mul_vec a x_true in
    let x = Lu.solve_dense a b in
    Alcotest.(check bool) "lu solve accurate" true (Vec.dist_inf x x_true < 1e-9)
  done

let test_lu_transpose_solve () =
  let rng = Rng.create 8 in
  let n = 9 in
  let a = random_matrix rng n in
  for i = 0 to n - 1 do
    Mat.add_to a i i 4.0
  done;
  let lu = Lu.factorize a in
  let b = Rng.gaussian_vector rng n in
  let x = Lu.solve_transpose lu b in
  let residual = Vec.sub (Mat.tmul_vec a x) b in
  Alcotest.(check bool) "transpose solve" true (Vec.norm_inf residual < 1e-9)

let test_lu_det () =
  let a = Mat.of_arrays [| [| 2.0; 0.0 |]; [| 1.0; 3.0 |] |] in
  check_float "det" 6.0 (Lu.det (Lu.factorize a));
  let p = Mat.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  check_float "det swap" (-1.0) (Lu.det (Lu.factorize p))

(* The 4x4 has column 2 = column 0 + column 1, so elimination dies at
   column 2 after two row swaps.  A NaN entry makes the singularity
   scale NaN, which turns the test off: the factorization then runs to
   the end. *)
let test_lu_singular () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular" (Lu.Singular 1) (fun () ->
      ignore (Lu.factorize a));
  let a =
    Mat.of_arrays
      [| [| 1.0; 2.0; 3.0; 4.0 |]; [| 2.0; 1.0; 3.0; 5.0 |];
         [| 3.0; 5.0; 8.0; 1.0 |]; [| 4.0; 4.0; 8.0; 2.0 |] |]
  in
  Alcotest.check_raises "rank-deficient 4x4" (Lu.Singular 2) (fun () ->
      ignore (Lu.factorize a));
  Mat.set a 3 3 Float.nan;
  match Lu.factorize a with
  | _ -> ()
  | exception Lu.Singular k ->
    Alcotest.failf "NaN entry: Singular %d, expected no singular test" k

let test_lu_inverse () =
  let a = Mat.of_arrays [| [| 4.0; 1.0 |]; [| 2.0; 3.0 |] |] in
  let inv = Lu.inverse a in
  let prod = Mat.mul a inv in
  check_float "inv 00" 1.0 (Mat.get prod 0 0);
  check_float "inv 01" 0.0 (Mat.get prod 0 1)

(* IEEE-754 bits recorded before Lu indexed its storage directly: the
   kernels keep the operation order, so every value must stay identical
   to the last bit.  The 12x12 matrix swaps rows at six of its columns. *)

let check_bits msg expected actual =
  Alcotest.(check int64) msg expected (Int64.bits_of_float actual)

let test_lu_pinned_bits () =
  let a =
    Mat.init 12 12 (fun i j ->
        (Float.of_int (((3 * i * i) + (5 * j * j) + (7 * i * j) + i + (2 * j))
                       mod 19)
         /. 8.0)
        -. 1.0)
  in
  let lu = Lu.factorize a in
  let b = Array.init 12 (fun i -> Float.of_int (i + 1) /. 3.0) in
  let pin name x expected =
    List.iteri
      (fun i e -> check_bits (Printf.sprintf "%s %d" name i) e x.(i))
      expected
  in
  pin "solve" (Lu.solve lu b)
    [ 0xc00aaaaaaaaaaaacL; 0xbfe5555555555530L; 0xc005555555555561L;
      0xc01555555555555bL; 0xc00aaaaaaaaaaaa9L; 0xbff5555555555550L;
      0xc012aaaaaaaaaaa8L; 0x400aaaaaaaaaaabdL; 0xc005555555555569L;
      0xbff5555555555561L; 0x4018000000000004L; 0x400aaaaaaaaaaaa2L ];
  pin "solve_transpose" (Lu.solve_transpose lu b)
    [ 0x3fe861861861862aL; 0xbfe24924924924bcL; 0xc006db6db6db6db6L;
      0xbfe861861861862aL; 0xbfd8618618618668L; 0xc010c30c30c30c36L;
      0xc013cf3cf3cf3cf9L; 0x4010000000000007L; 0x4011861861861869L;
      0x400861861861861cL; 0xbfee79e79e79e7c8L; 0xbff24924924924a1L ]

(* ------------------------------------------------------------------ Clu *)

let test_clu_solve () =
  let rng = Rng.create 21 in
  let n = 8 in
  let a =
    Cmat.init n n (fun i j ->
        let base = Cx.mk (Rng.uniform rng -. 0.5) (Rng.uniform rng -. 0.5) in
        if i = j then Cx.( +: ) base (Cx.re 4.0) else base)
  in
  let x_true = Cvec.init n (fun _ -> Cx.mk (Rng.gaussian rng) (Rng.gaussian rng)) in
  let b = Cmat.mul_vec a x_true in
  let x = Clu.solve_dense a b in
  let err = Cvec.norm_inf (Cvec.sub x x_true) in
  Alcotest.(check bool) "clu solve" true (err < 1e-9)

let test_clu_transpose () =
  let rng = Rng.create 22 in
  let n = 6 in
  let a =
    Cmat.init n n (fun i j ->
        let base = Cx.mk (Rng.uniform rng -. 0.5) (Rng.uniform rng -. 0.5) in
        if i = j then Cx.( +: ) base (Cx.re 3.0) else base)
  in
  let lu = Clu.factorize a in
  let b = Cvec.init n (fun _ -> Cx.mk (Rng.gaussian rng) 0.0) in
  let x = Clu.solve_transpose lu b in
  let residual = Cvec.sub (Cmat.tmul_vec a x) b in
  Alcotest.(check bool) "clu transpose solve" true (Cvec.norm_inf residual < 1e-9)

(* ---------------------------------------------------------------- scans *)

(* The max scans compare inline and call Float.max only for a NaN; the
   oracles are the folds they replaced, compared bit for bit, so the
   NaN a scan returns must be the fold's, payload included. *)

let bits = Int64.bits_of_float
let of_bits = Int64.float_of_bits

(* ±0, ±inf, ± the smallest subnormal, ±max_float, NaNs of both signs
   with two payloads each, and two plain values *)
let specials =
  [| 0.0; -0.0; Float.infinity; Float.neg_infinity; of_bits 1L;
     -.of_bits 1L; Float.max_float; -.Float.max_float;
     of_bits 0x7ff8000000000001L; of_bits 0x7ff8000000000abcL;
     of_bits 0xfff8000000000001L; of_bits 0xfff8000000000abcL; 1.5; -2.25 |]

(* half the entries from [specials], half random bit patterns *)
let draw st =
  if Random.State.bool st then
    specials.(Random.State.int st (Array.length specials))
  else of_bits (Random.State.bits64 st)

let draws st = Array.init (Random.State.int st 24) (fun _ -> draw st)

let max_fold f a =
  Array.fold_left (fun acc v -> Float.max acc (f v)) 0.0 a

(* a −NaN before a +NaN, and each NaN payload before the other *)
let nan_orders =
  [ [| of_bits 0xfff8000000000001L; of_bits 0x7ff8000000000abcL |];
    [| 1.0; of_bits 0x7ff8000000000abcL; 2.0; of_bits 0xfff8000000000001L |];
    [| of_bits 0x7ff8000000000001L; Float.infinity;
       of_bits 0xfff8000000000abcL |] ]

let test_real_max_scans () =
  let st = Random.State.make [| 41 |] in
  let check x y =
    check_bits "Vec.norm_inf" (bits (max_fold Float.abs x)) (Vec.norm_inf x);
    check_bits "Vec.dist_inf"
      (bits (max_fold Float.abs (Array.map2 ( -. ) x y)))
      (Vec.dist_inf x y);
    let n = Array.length x in
    let m = Mat.init 1 n (fun _ j -> x.(j)) in
    check_bits "Mat.max_abs" (bits (max_fold Float.abs x)) (Mat.max_abs m)
  in
  List.iter (fun x -> check x (Array.map Float.neg x)) nan_orders;
  for _ = 1 to 3000 do
    let x = draws st in
    check x (Array.map (fun _ -> draw st) x)
  done

let test_complex_max_scans () =
  let st = Random.State.make [| 42 |] in
  let check re im =
    let n = Array.length re in
    let oracle = ref 0.0 in
    for i = 0 to n - 1 do
      oracle := Float.max !oracle (Float.hypot re.(i) im.(i))
    done;
    let z = Cvec.init n (fun i -> Cx.mk re.(i) im.(i)) in
    check_bits "Cvec.norm_inf" (bits !oracle) (Cvec.norm_inf z);
    let m = Cmat.init n 1 (fun i _ -> Cx.mk re.(i) im.(i)) in
    check_bits "Cmat.max_abs" (bits !oracle) (Cmat.max_abs m)
  in
  List.iter (fun x -> check x (Array.map (fun _ -> 0.0) x)) nan_orders;
  (* one part ±0, the other NaN, inf or subnormal, in both places *)
  let others =
    [| of_bits 0x7ff8000000000abcL; of_bits 0xfff8000000000001L;
       Float.infinity; Float.neg_infinity; of_bits 1L; -.of_bits 1L |]
  in
  Array.iter
    (fun z ->
      Array.iter
        (fun o ->
          check [| z; 3.0; o |] [| o; 4.0; z |];
          check [| o; z |] [| z; o |])
        others)
    [| 0.0; -0.0 |];
  for _ = 1 to 3000 do
    let re = draws st in
    check re (Array.map (fun _ -> draw st) re)
  done

(* the loop Vec.bits_equal replaced *)
let bits_loop x y =
  Array.length x = Array.length y
  && Array.for_all2 (fun a b -> Int64.equal (bits a) (bits b)) x y

let test_bits_equal () =
  let st = Random.State.make [| 43 |] in
  let check x y =
    Alcotest.(check bool) "Vec.bits_equal = the bits loop" (bits_loop x y)
      (Vec.bits_equal x y)
  in
  for _ = 1 to 3000 do
    let x = draws st in
    let y = Array.copy x in
    check x y;
    if Array.length x > 0 then begin
      let i = Random.State.int st (Array.length x) in
      (* a zero's sign only, a NaN's payload only, or a random entry *)
      (match Random.State.int st 3 with
       | 0 -> x.(i) <- 0.0; y.(i) <- -0.0
       | 1 ->
         x.(i) <- of_bits 0x7ff8000000000001L;
         y.(i) <- of_bits 0x7ff8000000000abcL
       | _ -> y.(i) <- draw st);
      check x y;
      check y x;
      check x (Array.sub y 0 i)
    end
  done

(* A NaN value makes the singular tolerance NaN, so no pivot fails it:
   the dense complex factorization and the sparse replays of a plan made
   from finite values run to the end, as Lu does (test_lu_singular).  The
   4x4 has column 2 = column 0 + column 1. *)
let test_nan_singular_off () =
  let rows =
    [| [| 1.0; 2.0; 3.0; 4.0 |]; [| 2.0; 1.0; 3.0; 5.0 |];
       [| 3.0; 5.0; 8.0; 1.0 |]; [| 4.0; 4.0; 8.0; 2.0 |] |]
  in
  let a = Mat.of_arrays rows in
  let expect_singular name f =
    match f () with
    | () ->
      Alcotest.failf "%s: finite rank-deficient values not singular" name
    | exception (Clu.Singular _ | Splu.Singular _) -> ()
  in
  let expect_runs name f =
    match f () with
    | () -> ()
    | exception (Clu.Singular k | Splu.Singular k) ->
      Alcotest.failf "%s with a NaN entry: Singular %d, expected no test"
        name k
  in
  let cm () =
    Cmat.init 4 4 (fun i j -> Cx.mk rows.(i).(j) (0.5 *. rows.(i).(j)))
  in
  expect_singular "Clu" (fun () -> ignore (Clu.factorize (cm ())));
  let m = cm () in
  m.Cmat.re.(15) <- Float.nan;
  expect_runs "Clu" (fun () -> ignore (Clu.factorize m));
  (* plans from the well-conditioned a + 10·I, same full pattern *)
  let good =
    Csr.of_dense
      (Mat.init 4 4 (fun i j -> Mat.get a i j +. if i = j then 10.0 else 0.0))
  in
  let sing = Csr.of_dense a in
  let plan = Splu.plan good in
  expect_singular "Splu" (fun () -> ignore (Splu.factorize plan sing));
  let nan_csr = Csr.copy sing in
  nan_csr.Csr.v.(15) <- Float.nan;
  expect_runs "Splu" (fun () -> ignore (Splu.factorize plan nan_csr));
  let cvals (csr : Csr.t) =
    Cvec.init (Csr.nnz csr) (fun p ->
        let v = csr.Csr.v.(p) in
        Cx.mk v (0.5 *. v))
  in
  let cplan = Csplu.plan good (cvals good) in
  expect_singular "Csplu" (fun () ->
      ignore (Csplu.factorize cplan sing (cvals sing)));
  let nan_vals = cvals sing in
  nan_vals.Cvec.re.(15) <- Float.nan;
  expect_runs "Csplu" (fun () -> ignore (Csplu.factorize cplan sing nan_vals))

(* ------------------------------------- allocation-free kernel variants *)

(* the _into kernels must be drop-in replacements on the hot paths, so
   the contract is exact equality with the allocating originals, not
   tolerance-level agreement *)

let check_floats_exact msg a b =
  Alcotest.(check (array (float 0.0))) msg a b

let check_cvec_exact msg (a : Cvec.t) (b : Cvec.t) =
  check_floats_exact (msg ^ " re") a.re b.re;
  check_floats_exact (msg ^ " im") a.im b.im

let test_mat_vec_into () =
  let rng = Rng.create 31 in
  for _trial = 1 to 10 do
    let n = 1 + Rng.int rng 9 in
    let a = random_matrix rng n in
    let x = Rng.gaussian_vector rng n in
    let y = Vec.create n in
    Mat.mul_vec_into a x y;
    check_floats_exact "mul_vec_into = mul_vec" (Mat.mul_vec a x) y;
    Mat.tmul_vec_into a x y;
    check_floats_exact "tmul_vec_into = tmul_vec" (Mat.tmul_vec a x) y
  done

let test_lu_solve_into () =
  let rng = Rng.create 32 in
  for _trial = 1 to 10 do
    let n = 1 + Rng.int rng 9 in
    let a = random_matrix rng n in
    for i = 0 to n - 1 do
      Mat.add_to a i i 4.0
    done;
    let lu = Lu.factorize a in
    let b = Rng.gaussian_vector rng n in
    let x = Vec.create n in
    Lu.solve_into lu b x;
    check_floats_exact "solve_into = solve" (Lu.solve lu b) x;
    let scratch = Vec.create n in
    Lu.solve_transpose_into lu ~scratch b x;
    check_floats_exact "solve_transpose_into = solve_transpose"
      (Lu.solve_transpose lu b) x
  done

let random_cmatrix rng n =
  Cmat.init n n (fun i j ->
      let base = Cx.mk (Rng.uniform rng -. 0.5) (Rng.uniform rng -. 0.5) in
      if i = j then Cx.( +: ) base (Cx.re 4.0) else base)

let test_clu_solve_into () =
  let rng = Rng.create 33 in
  for _trial = 1 to 10 do
    let n = 1 + Rng.int rng 9 in
    let a = random_cmatrix rng n in
    let lu = Clu.factorize a in
    let b =
      Cvec.init n (fun _ -> Cx.mk (Rng.gaussian rng) (Rng.gaussian rng))
    in
    let x = Cvec.create n in
    Clu.solve_into lu b x;
    check_cvec_exact "solve_into = solve" (Clu.solve lu b) x;
    let scratch = Cvec.create n in
    Clu.solve_transpose_into lu ~scratch b x;
    check_cvec_exact "solve_transpose_into = solve_transpose"
      (Clu.solve_transpose lu b) x
  done

let test_cvec_inplace () =
  let rng = Rng.create 34 in
  let n = 7 in
  let mk () =
    Cvec.init n (fun _ -> Cx.mk (Rng.gaussian rng) (Rng.gaussian rng))
  in
  let x = mk () and y = mk () in
  let expect_add = Cvec.add x y in
  let z = Cvec.copy x in
  Cvec.add_inplace z y;
  check_cvec_exact "add_inplace = add" expect_add z;
  let a = Cx.mk 0.3 (-1.7) in
  let expect_scale = Cvec.scale a x in
  let w = Cvec.copy x in
  Cvec.scale_inplace a w;
  check_cvec_exact "scale_inplace = scale" expect_scale w

(* Complex storage is split re/im float arrays precisely so that these
   kernels stop allocating a box per entry: over 1000 calls they must
   allocate no minor words at all (in the dev profile too, whose
   -opaque boxes any cross-module float argument). *)
let minor_words_per_call f =
  let calls = 1000 in
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int calls

(* Words per call allocated straight in the major heap: an array above
   Max_young_wosize (256 words) skips the minor heap, so minor words
   miss it.  Promoted words are counted in major_words too, and are
   taken back out. *)
let major_words_per_call f =
  let calls = 100 in
  f ();
  let s0 = Gc.quick_stat () in
  for _ = 1 to calls do
    f ()
  done;
  let s1 = Gc.quick_stat () in
  (s1.Gc.major_words -. s0.Gc.major_words
  -. (s1.Gc.promoted_words -. s0.Gc.promoted_words))
  /. float_of_int calls

let test_complex_kernels_allocation_free () =
  let rng = Rng.create 35 in
  let n = 40 in
  let lu = Clu.factorize (random_cmatrix rng n) in
  let pat =
    Csr.of_dense
      (Mat.init n n (fun i j ->
           if i = j then 4.0 else if abs (i - j) = 1 then 1.0 else 0.0))
  in
  let vals =
    Cvec.init (Csr.nnz pat) (fun p -> Cx.mk pat.Csr.v.(p) (Rng.uniform rng -. 0.5))
  in
  let splu = Csplu.factorize (Csplu.plan pat vals) pat vals in
  let rand () =
    Cvec.init n (fun _ -> Cx.mk (Rng.gaussian rng) (Rng.gaussian rng))
  in
  let b = rand () and y = rand () in
  let x = Cvec.create n and scratch = Cvec.create n in
  (* |a| = 1, so a thousand in-place scalings stay finite *)
  let a = Cx.mk 0.6 0.8 in
  List.iter
    (fun (name, f) ->
      Alcotest.(check (float 0.0)) (name ^ ": minor words per call") 0.0
        (minor_words_per_call f))
    [
      ("Clu.solve_into", fun () -> Clu.solve_into lu b x);
      ( "Clu.solve_transpose_into",
        fun () -> Clu.solve_transpose_into lu ~scratch b x );
      ("Csplu.solve_into", fun () -> Csplu.solve_into splu ~scratch b x);
      ( "Csplu.solve_transpose_into",
        fun () -> Csplu.solve_transpose_into splu ~scratch b x );
      ("Cvec.axpy", fun () -> Cvec.axpy a b y);
      ("Cvec.add_inplace", fun () -> Cvec.add_inplace y b);
      ("Cvec.scale_inplace", fun () -> Cvec.scale_inplace a y);
      ("Cvec.blit", fun () -> Cvec.blit b x);
    ]

(* The same -opaque rule holds for the real kernels on the Newton path:
   Lu and the stamp sinks index their float arrays directly, so the
   solves allocate nothing, a factorization allocates its own storage
   and no more, and stamping allocates no word per device. *)
let test_real_kernels_allocation () =
  let rng = Rng.create 36 in
  let n = 40 in
  let a = random_matrix rng n in
  for i = 0 to n - 1 do
    Mat.add_to a i i 4.0
  done;
  let lu = Lu.factorize a in
  let b = Rng.gaussian_vector rng n in
  let x = Vec.create n and scratch = Vec.create n in
  List.iter
    (fun (name, f) ->
      Alcotest.(check (float 0.0)) (name ^ ": minor words per call") 0.0
        (minor_words_per_call f))
    [
      ("Lu.solve_into", fun () -> Lu.solve_into lu b x);
      ( "Lu.solve_transpose_into",
        fun () -> Lu.solve_transpose_into lu ~scratch b x );
    ];
  (* the packed factor (n² floats), the permutation, the boxed sign and
     the record: n² + 2n + 16 words bounds them at n = 10 *)
  let n = 10 in
  let a = random_matrix rng n in
  for i = 0 to n - 1 do
    Mat.add_to a i i 4.0
  done;
  let words = minor_words_per_call (fun () -> ignore (Lu.factorize a)) in
  Alcotest.(check bool)
    (Printf.sprintf "Lu.factorize at n = 10: %.0f words <= %d" words
       ((n * n) + (2 * n) + 16))
    true
    (words <= float_of_int ((n * n) + (2 * n) + 16))

(* The Vec kernels on the Newton path are loops: the norm allocates
   only the box of the float it returns (two words: a float result
   crossing a module is boxed under -opaque), and add/sub/scale their
   result array (n floats and a header word), no entry on its way in *)
let test_vec_kernels_allocation () =
  let rng = Rng.create 37 in
  let n = 40 in
  let x = Rng.gaussian_vector rng n and y = Rng.gaussian_vector rng n in
  let sink = ref 0.0 in
  let w = minor_words_per_call (fun () -> sink := Vec.norm_inf x) in
  Alcotest.(check bool)
    (Printf.sprintf "Vec.norm_inf: %.0f minor words per call <= 2" w)
    true (w <= 2.0);
  List.iter
    (fun (name, f) ->
      Alcotest.(check (float 0.0)) (name ^ ": minor words per call")
        (float_of_int (n + 1))
        (minor_words_per_call (fun () -> ignore (f () : Vec.t))))
    [
      ("Vec.add", fun () -> Vec.add x y);
      ("Vec.sub", fun () -> Vec.sub x y);
      ("Vec.scale", fun () -> Vec.scale (-1.0) x);
    ]

let dac codes =
  Dac_string.testbench
    ~params:{ Dac_string.default_params with Dac_string.codes } ()

(* Splu's replay takes its elimination scratch from the caller: a
   refactorization of the DAC's Jacobian writes the factor's storage
   and allocates nothing, minor or major (the 513-float scratch would
   have gone straight to the major heap) *)
let test_splu_refactorize_allocation () =
  let c = dac 512 in
  let size = Circuit.size c in
  let pat = Stamp.pattern c in
  let x = Array.init size (fun i -> 0.001 *. float_of_int i) in
  Stamp.eval c ~t:1e-7 ~gmin:1e-12 ~x ~g:(Vec.create size)
    ~jac:(Some (Stamp.csr_sink c pat)) ();
  let scratch = Vec.create size in
  let f = Splu.factorize ~scratch (Splu.plan pat) pat in
  let refactorize () = Splu.refactorize f ~scratch pat in
  Alcotest.(check (float 0.0)) "Splu.refactorize: minor words per call" 0.0
    (minor_words_per_call refactorize);
  Alcotest.(check (float 0.0)) "Splu.refactorize: major words per call" 0.0
    (major_words_per_call refactorize)

(* A transient step of a linear circuit whose factor is reused: Newton
   and Tran.step run on buffers allocated once per step, so the words
   a step allocates are a fixed number of n-float arrays plus a
   size-free constant.  Seven arrays: Newton's iterate, residual,
   negated residual, update and solve scratch, and Tran's x − x_prev
   and C·(x − x_prev).  The 64- and 128-code DACs keep those arrays
   under the minor-heap size limit, so minor words count them exactly;
   on the 512-code DAC they go straight to the major heap, whose word
   counter is not exact per call under OCaml 5 (a probe read 453–529
   words per 514-word array), so there the step's minor words must be
   the same size-free constant.  An n-sized allocation per Newton
   iteration or a factorization per step breaks one of the counts. *)
let test_tran_step_allocation () =
  let step_words codes =
    let c = dac codes in
    let sys = Linsys.make ~solver:Linsys.Sparse c in
    let c_mat = Linsys.c_matrix sys c in
    let x_prev = Vec.create (Circuit.size c) in
    let iterations = ref 0 in
    let step () =
      let r =
        Tran.step ~options:Tran.default_options ~circuit:c ~sys ~c_mat ~x_prev
          ~t_prev:0.0 ~t_next:1e-8 ()
      in
      iterations := r.Newton.iterations
    in
    let words = minor_words_per_call step in
    (Circuit.size c, words, !iterations)
  in
  let n64, w64, i64 = step_words 64 and n128, w128, i128 = step_words 128 in
  let _, w512, i512 = step_words 512 in
  Alcotest.(check (list int)) "Newton iterations per step" [ i64; i64 ]
    [ i128; i512 ];
  Alcotest.(check (float 0.0))
    (Printf.sprintf "words per step, n = %d minus n = %d (%.0f and %.0f)" n128
       n64 w128 w64)
    (float_of_int (7 * (n128 - n64)))
    (w128 -. w64);
  Alcotest.(check (float 0.0)) "minor words per step, 512 codes"
    (w64 -. float_of_int (7 * (n64 + 1)))
    w512

let test_stamp_allocation () =
  let stamp_words codes =
    let c = dac codes in
    let size = Circuit.size c in
    let x = Array.init size (fun i -> 0.001 *. float_of_int i) in
    let g = Vec.create size in
    let jac = Some (Stamp.csr_sink c (Stamp.pattern c)) in
    minor_words_per_call (fun () -> Stamp.eval c ~t:1e-7 ~x ~g ~jac ())
  in
  let w64 = stamp_words 64 and w512 = stamp_words 512 in
  Alcotest.(check (float 0.0))
    (Printf.sprintf "Stamp.eval words per call, 512 codes (64 codes: %.0f)" w64)
    w64 w512

(* ------------------------------------------------------------- Cholesky *)

let test_cholesky () =
  let c =
    Mat.of_arrays [| [| 4.0; 2.0; 0.0 |]; [| 2.0; 5.0; 1.0 |]; [| 0.0; 1.0; 3.0 |] |]
  in
  let l = Cholesky.factorize c in
  let llt = Mat.mul l (Mat.transpose l) in
  for i = 0 to 2 do
    for j = 0 to 2 do
      check_float (Printf.sprintf "llt %d %d" i j) (Mat.get c i j) (Mat.get llt i j)
    done
  done;
  let b = [| 1.0; 2.0; 3.0 |] in
  let x = Cholesky.solve l b in
  let r = Vec.sub (Mat.mul_vec c x) b in
  Alcotest.(check bool) "cholesky solve" true (Vec.norm_inf r < 1e-10)

let test_cholesky_semidefinite () =
  (* rank-1: perfectly correlated pair *)
  let c = Mat.of_arrays [| [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |] in
  let l = Cholesky.factorize_semidefinite c in
  let llt = Mat.mul l (Mat.transpose l) in
  check_float "semidef 01" 1.0 (Mat.get llt 0 1);
  Alcotest.check_raises "not positive definite"
    (Cholesky.Not_positive_definite 1) (fun () ->
      ignore (Cholesky.factorize (Mat.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |])))

(* ------------------------------------------------------------------ Rng *)

let test_rng_determinism () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _i = 1 to 100 do
    check_float "deterministic" (Rng.uniform a) (Rng.uniform b)
  done

let test_rng_gaussian_moments () =
  let rng = Rng.create 99 in
  let n = 200_000 in
  let xs = Array.init n (fun _ -> Rng.gaussian rng) in
  let s = Stats.summarize xs in
  Alcotest.(check bool) "mean ~ 0" true (Float.abs s.Stats.mean < 0.01);
  Alcotest.(check bool) "sigma ~ 1" true (Float.abs (s.Stats.std_dev -. 1.0) < 0.01);
  Alcotest.(check bool) "skew ~ 0" true (Float.abs s.Stats.skewness < 0.03)

let test_rng_uniform_range () =
  let rng = Rng.create 5 in
  for _i = 1 to 1000 do
    let u = Rng.uniform_range rng 2.0 3.0 in
    Alcotest.(check bool) "in range" true (u >= 2.0 && u < 3.0)
  done

(* -------------------------------------------------------------- Special *)

let test_erf () =
  check_float ~eps:1e-7 "erf 0" 0.0 (Special.erf 0.0);
  check_float ~eps:1e-7 "erf 1" 0.8427007929 (Special.erf 1.0);
  check_float ~eps:1e-7 "erf -1" (-0.8427007929) (Special.erf (-1.0));
  check_float ~eps:1e-7 "erf 2" 0.9953222650 (Special.erf 2.0)

let test_normal () =
  check_float ~eps:1e-9 "cdf 0" 0.5 (Special.normal_cdf 0.0);
  check_float ~eps:1e-6 "cdf 1.96" 0.9750021049 (Special.normal_cdf 1.96);
  check_float ~eps:1e-8 "quantile" 1.6448536270 (Special.normal_quantile 0.95);
  check_float ~eps:1e-8 "quantile symmetric"
    (-.Special.normal_quantile 0.975)
    (Special.normal_quantile 0.025);
  check_float ~eps:1e-9 "pdf 0" (1.0 /. sqrt (2.0 *. Float.pi))
    (Special.normal_pdf 0.0)

let test_chi2 () =
  (* chi2 with k dof has mean k; median ~ k(1-2/(9k))^3 *)
  check_float ~eps:1e-4 "chi2 median k=10" 9.341818
    (Special.chi2_quantile 10 0.5);
  check_float ~eps:1e-3 "chi2 0.95 k=10" 18.307038 (Special.chi2_quantile 10 0.95)

let test_gamma () =
  check_float ~eps:1e-9 "log_gamma 5" (log 24.0) (Special.log_gamma 5.0);
  check_float ~eps:1e-9 "log_gamma 0.5" (log (sqrt Float.pi))
    (Special.log_gamma 0.5);
  check_float ~eps:1e-8 "gamma_p(1,1)" (1.0 -. exp (-1.0)) (Special.gamma_p 1.0 1.0)

(* ---------------------------------------------------------------- Stats *)

let test_stats_moments () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_float "mean" 5.0 (Stats.mean xs);
  check_float "pop variance" 4.0 (Stats.central_moment 2 xs);
  check_float ~eps:1e-9 "sample variance" (32.0 /. 7.0) (Stats.variance xs)

let test_stats_correlation () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = [| 2.0; 4.0; 6.0; 8.0 |] in
  check_float ~eps:1e-12 "perfect correlation" 1.0 (Stats.correlation xs ys);
  let zs = [| 8.0; 6.0; 4.0; 2.0 |] in
  check_float ~eps:1e-12 "anti correlation" (-1.0) (Stats.correlation xs zs)

let test_stats_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "median" 3.0 (Stats.percentile xs 50.0);
  check_float "p0" 1.0 (Stats.percentile xs 0.0);
  check_float "p100" 5.0 (Stats.percentile xs 100.0);
  check_float "p25" 2.0 (Stats.percentile xs 25.0)

let test_sigma_ci () =
  (* the paper quotes +/-4.5% at n=1000 and +/-1.4% at n=10000 *)
  let hw1000 = Stats.sigma_relative_ci_halfwidth 1000 in
  let hw10000 = Stats.sigma_relative_ci_halfwidth 10000 in
  Alcotest.(check bool) "n=1000 halfwidth ~ 4.4%" true
    (hw1000 > 0.040 && hw1000 < 0.050);
  Alcotest.(check bool) "n=10000 halfwidth ~ 1.4%" true
    (hw10000 > 0.012 && hw10000 < 0.016)

let test_histogram () =
  let xs = [| 0.1; 0.2; 0.3; 0.9; 0.95 |] in
  let h = Stats.histogram ~bins:2 ~range:(0.0, 1.0) xs in
  Alcotest.(check int) "bin0" 3 h.Stats.counts.(0);
  Alcotest.(check int) "bin1" 2 h.Stats.counts.(1);
  (* density integrates to 1 *)
  let integral =
    (Stats.histogram_density h 0 +. Stats.histogram_density h 1) *. h.Stats.bin_width
  in
  check_float "density integral" 1.0 integral

let test_skewness_signs () =
  let right = [| 1.0; 1.0; 1.0; 1.0; 10.0 |] in
  Alcotest.(check bool) "right skew positive" true (Stats.skewness right > 0.0);
  let left = [| 1.0; 10.0; 10.0; 10.0; 10.0 |] in
  Alcotest.(check bool) "left skew negative" true (Stats.skewness left < 0.0);
  (* the paper's Fig. 11 definition divides by the (positive) mean *)
  Alcotest.(check bool) "normalized skewness sign" true
    (Stats.normalized_skewness left < 0.0)

(* ------------------------------------------------------------------ Fft *)

let test_dft_roundtrip () =
  let rng = Rng.create 3 in
  List.iter
    (fun n ->
      let x = Cvec.init n (fun _ -> Cx.mk (Rng.gaussian rng) (Rng.gaussian rng)) in
      let y = Fft.idft (Fft.dft x) in
      let err = Cvec.norm_inf (Cvec.sub x y) in
      Alcotest.(check bool) (Printf.sprintf "roundtrip n=%d" n) true (err < 1e-9))
    [ 1; 2; 8; 64; 12; 100 ]

let test_dft_sine () =
  let n = 64 in
  let x =
    Array.init n (fun k -> 3.0 *. cos (2.0 *. Float.pi *. float_of_int k /. float_of_int n))
  in
  check_float ~eps:1e-9 "harmonic 1 amplitude" 3.0 (Fft.harmonic_amplitude x 1);
  check_float ~eps:1e-9 "harmonic 2 empty" 0.0 (Fft.harmonic_amplitude x 2);
  let dc = Array.map (fun v -> v +. 5.0) x in
  check_float ~eps:1e-9 "dc" 5.0 (Fft.harmonic_amplitude dc 0)

let test_pow2_matches_direct () =
  let rng = Rng.create 4 in
  let n = 16 in
  let x = Cvec.init n (fun _ -> Cx.mk (Rng.gaussian rng) (Rng.gaussian rng)) in
  let fast = Fft.dft x in
  (* compare against an explicitly non-power-of-two-padded direct DFT *)
  let direct =
    Cvec.init n (fun k ->
        let s = ref Cx.zero in
        for j = 0 to n - 1 do
          let ang = -2.0 *. Float.pi *. float_of_int (k * j) /. float_of_int n in
          s := Cx.( +: ) !s (Cx.( *: ) (Cvec.get x j) (Cx.exp_i ang))
        done;
        !s)
  in
  let err = Cvec.norm_inf (Cvec.sub fast direct) in
  Alcotest.(check bool) "fft = direct dft" true (err < 1e-9)

(* ------------------------------------------------------------------ Eig *)

let test_eig_known () =
  let d = Mat.of_arrays [| [| 3.0; 0.0 |]; [| 1.0; -2.0 |] |] in
  let es = Eig.eigenvalues_sorted d in
  check_float ~eps:1e-10 "triangular e1" 3.0 es.(0).Cx.re;
  check_float ~eps:1e-10 "triangular e2" (-2.0) es.(1).Cx.re;
  (* rotation block: complex pair on the unit circle *)
  let c = cos 0.3 and s = sin 0.3 in
  let r = Mat.of_arrays [| [| c; -.s |]; [| s; c |] |] in
  let es = Eig.eigenvalues_sorted r in
  check_float ~eps:1e-10 "rotation |e|" 1.0 (Cx.abs es.(0));
  check_float ~eps:1e-10 "rotation angle" 0.3 (Float.abs (Cx.arg es.(0)))

let test_eig_companion () =
  (* roots of (x-1)(x-2)(x-3)(x+4) *)
  let coeffs = [| -2.0; 25.0; 2.0; -24.0 |] in
  (* companion for x^4 + c3 x^3 + c2 x^2 + c1 x + c0 with poly
     (x-1)(x-2)(x-3)(x+4) = x^4 - 2x^3 - 13x^2 + 38x - 24 *)
  ignore coeffs;
  let comp =
    Mat.of_arrays
      [| [| 2.0; 13.0; -38.0; 24.0 |];
         [| 1.0; 0.0; 0.0; 0.0 |];
         [| 0.0; 1.0; 0.0; 0.0 |];
         [| 0.0; 0.0; 1.0; 0.0 |] |]
  in
  let es = Eig.eigenvalues_sorted comp in
  let mags = Array.map Cx.abs es in
  check_float ~eps:1e-8 "root -4" 4.0 mags.(0);
  check_float ~eps:1e-8 "root 3" 3.0 mags.(1);
  check_float ~eps:1e-8 "root 2" 2.0 mags.(2);
  check_float ~eps:1e-8 "root 1" 1.0 mags.(3)

let test_eig_hessenberg_preserves_spectrum () =
  let rng = Rng.create 31 in
  let n = 7 in
  let a = Mat.init n n (fun _ _ -> Rng.gaussian rng) in
  let h = Eig.hessenberg a in
  (* Hessenberg structure *)
  for i = 2 to n - 1 do
    for j = 0 to i - 2 do
      check_float ~eps:1e-12 "hessenberg zero" 0.0 (Mat.get h i j)
    done
  done;
  (* similarity: trace preserved *)
  let tr m =
    let s = ref 0.0 in
    for i = 0 to n - 1 do
      s := !s +. Mat.get m i i
    done;
    !s
  in
  check_float ~eps:1e-9 "trace preserved" (tr a) (tr h)

let prop_eig_similarity =
  QCheck.Test.make ~count:40 ~name:"eigenvalues of P·D·P⁻¹ recover D"
    QCheck.(pair (int_bound 10_000) (int_range 2 8))
    (fun (seed, n) ->
      let rng = Rng.create (seed + 41) in
      let p = Mat.init n n (fun i j -> Rng.gaussian rng +. if i = j then 3.0 else 0.0) in
      match Lu.inverse p with
      | exception Lu.Singular _ -> QCheck.assume_fail ()
      | pinv ->
        let d = Mat.init n n (fun i j -> if i = j then float_of_int (i + 1) else 0.0) in
        let a = Mat.mul p (Mat.mul d pinv) in
        let es = Eig.eigenvalues_sorted a in
        let ok = ref true in
        Array.iteri
          (fun i z ->
            let expected = float_of_int (n - i) in
            if Float.abs (z.Cx.re -. expected) > 1e-5 *. expected
               || Float.abs z.Cx.im > 1e-6
            then ok := false)
          es;
        !ok)

let prop_eig_trace =
  QCheck.Test.make ~count:60 ~name:"sum of eigenvalues = trace"
    QCheck.(pair (int_bound 10_000) (int_range 1 10))
    (fun (seed, n) ->
      let rng = Rng.create (seed + 51) in
      let a = Mat.init n n (fun _ _ -> Rng.gaussian rng) in
      let es = Eig.eigenvalues a in
      let sum_re = Array.fold_left (fun acc (z : Cx.t) -> acc +. z.Cx.re) 0.0 es in
      let sum_im = Array.fold_left (fun acc (z : Cx.t) -> acc +. z.Cx.im) 0.0 es in
      let tr = ref 0.0 in
      for i = 0 to n - 1 do
        tr := !tr +. Mat.get a i i
      done;
      Float.abs (sum_re -. !tr) < 1e-7 *. Float.max 1.0 (Float.abs !tr)
      && Float.abs sum_im < 1e-7)

(* -------------------------------------------------------------- QCheck *)

let prop_lu_solves =
  QCheck.Test.make ~count:60 ~name:"lu solves random well-conditioned systems"
    QCheck.(pair (int_bound 1000) (int_range 1 10))
    (fun (seed, n) ->
      let rng = Rng.create (seed + 1) in
      let a = random_matrix rng n in
      for i = 0 to n - 1 do
        Mat.add_to a i i (4.0 +. float_of_int n)
      done;
      let x_true = Rng.gaussian_vector rng n in
      let b = Mat.mul_vec a x_true in
      let x = Lu.solve_dense a b in
      Vec.dist_inf x x_true < 1e-8)

let prop_dot_cauchy_schwarz =
  QCheck.Test.make ~count:200 ~name:"cauchy-schwarz"
    QCheck.(pair (list_of_size (Gen.int_range 1 20) (float_range (-10.0) 10.0))
              (list_of_size (Gen.int_range 1 20) (float_range (-10.0) 10.0)))
    (fun (xs, ys) ->
      let n = Stdlib.min (List.length xs) (List.length ys) in
      QCheck.assume (n > 0);
      let x = Array.of_list (List.filteri (fun i _ -> i < n) xs) in
      let y = Array.of_list (List.filteri (fun i _ -> i < n) ys) in
      Float.abs (Vec.dot x y) <= (Vec.norm2 x *. Vec.norm2 y) +. 1e-9)

let prop_cholesky_roundtrip =
  QCheck.Test.make ~count:60 ~name:"cholesky reconstructs A·Aᵀ"
    QCheck.(pair (int_bound 1000) (int_range 1 8))
    (fun (seed, n) ->
      let rng = Rng.create (seed + 11) in
      let a = random_matrix rng n in
      let c = Mat.mul a (Mat.transpose a) in
      for i = 0 to n - 1 do
        Mat.add_to c i i 0.5
      done;
      let l = Cholesky.factorize c in
      let llt = Mat.mul l (Mat.transpose l) in
      Mat.max_abs (Mat.sub c llt) < 1e-9 *. Float.max 1.0 (Mat.max_abs c))

let prop_dft_parseval =
  QCheck.Test.make ~count:60 ~name:"parseval"
    (QCheck.list_of_size (QCheck.Gen.int_range 1 64) (QCheck.float_range (-5.0) 5.0))
    (fun xs ->
      QCheck.assume (xs <> []);
      let x = Array.of_list xs in
      let n = Array.length x in
      let spectrum = Fft.dft_real x in
      let time_energy = Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 x in
      let freq_energy =
        List.fold_left
          (fun acc k -> acc +. Cx.abs2 (Cvec.get spectrum k))
          0.0 (List.init n Fun.id)
        /. float_of_int n
      in
      Float.abs (time_energy -. freq_energy)
      <= 1e-6 *. Float.max 1.0 time_energy)

let prop_percentile_monotone =
  QCheck.Test.make ~count:100 ~name:"percentile is monotone"
    (QCheck.list_of_size (QCheck.Gen.int_range 2 50) (QCheck.float_range (-100.0) 100.0))
    (fun xs ->
      QCheck.assume (xs <> []);
      let x = Array.of_list xs in
      Stats.percentile x 25.0 <= Stats.percentile x 75.0)

let () =
  Alcotest.run "numeric"
    [
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick test_vec_basics;
          Alcotest.test_case "basis" `Quick test_vec_basis;
        ] );
      ( "mat",
        [
          Alcotest.test_case "mul" `Quick test_mat_mul;
          Alcotest.test_case "mat-vec" `Quick test_mat_vec;
          Alcotest.test_case "transpose" `Quick test_mat_transpose;
        ] );
      ( "lu",
        [
          Alcotest.test_case "solve" `Quick test_lu_solve;
          Alcotest.test_case "transpose solve" `Quick test_lu_transpose_solve;
          Alcotest.test_case "det" `Quick test_lu_det;
          Alcotest.test_case "singular" `Quick test_lu_singular;
          Alcotest.test_case "inverse" `Quick test_lu_inverse;
          Alcotest.test_case "pinned bits" `Quick test_lu_pinned_bits;
        ] );
      ( "clu",
        [
          Alcotest.test_case "solve" `Quick test_clu_solve;
          Alcotest.test_case "transpose solve" `Quick test_clu_transpose;
        ] );
      ( "scans",
        [
          Alcotest.test_case "real max = Float.max fold" `Quick
            test_real_max_scans;
          Alcotest.test_case "complex max = Float.max fold" `Quick
            test_complex_max_scans;
          Alcotest.test_case "bits_equal = bits loop" `Quick test_bits_equal;
          Alcotest.test_case "NaN turns singular tests off" `Quick
            test_nan_singular_off;
        ] );
      ( "into-kernels",
        [
          Alcotest.test_case "mat-vec" `Quick test_mat_vec_into;
          Alcotest.test_case "lu solve" `Quick test_lu_solve_into;
          Alcotest.test_case "clu solve" `Quick test_clu_solve_into;
          Alcotest.test_case "cvec inplace" `Quick test_cvec_inplace;
          Alcotest.test_case "complex kernels allocation-free" `Quick
            test_complex_kernels_allocation_free;
          Alcotest.test_case "real kernels allocation" `Quick
            test_real_kernels_allocation;
          Alcotest.test_case "stamp allocation" `Quick test_stamp_allocation;
          Alcotest.test_case "vec kernels allocation" `Quick
            test_vec_kernels_allocation;
          Alcotest.test_case "splu refactorize allocation" `Quick
            test_splu_refactorize_allocation;
          Alcotest.test_case "tran step allocation" `Quick
            test_tran_step_allocation;
        ] );
      ( "cholesky",
        [
          Alcotest.test_case "factorize" `Quick test_cholesky;
          Alcotest.test_case "semidefinite" `Quick test_cholesky_semidefinite;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "gaussian moments" `Slow test_rng_gaussian_moments;
          Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
        ] );
      ( "special",
        [
          Alcotest.test_case "erf" `Quick test_erf;
          Alcotest.test_case "normal" `Quick test_normal;
          Alcotest.test_case "chi2" `Quick test_chi2;
          Alcotest.test_case "gamma" `Quick test_gamma;
        ] );
      ( "stats",
        [
          Alcotest.test_case "moments" `Quick test_stats_moments;
          Alcotest.test_case "correlation" `Quick test_stats_correlation;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "sigma CI (paper's 4.5%/1.4%)" `Quick test_sigma_ci;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "skewness signs" `Quick test_skewness_signs;
        ] );
      ( "fft",
        [
          Alcotest.test_case "roundtrip" `Quick test_dft_roundtrip;
          Alcotest.test_case "sine" `Quick test_dft_sine;
          Alcotest.test_case "pow2 = direct" `Quick test_pow2_matches_direct;
        ] );
      ( "eig",
        [
          Alcotest.test_case "known spectra" `Quick test_eig_known;
          Alcotest.test_case "companion roots" `Quick test_eig_companion;
          Alcotest.test_case "hessenberg" `Quick
            test_eig_hessenberg_preserves_spectrum;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_eig_similarity;
            prop_eig_trace;
            prop_lu_solves;
            prop_dot_cauchy_schwarz;
            prop_cholesky_roundtrip;
            prop_dft_parseval;
            prop_percentile_monotone;
          ] );
    ]
