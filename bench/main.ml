(* Experiment harness: regenerates every table and figure of the
   paper's evaluation section.

     dune exec bench/main.exe               -- run everything (default counts)
     dune exec bench/main.exe -- --quick    -- reduced Monte-Carlo counts
     dune exec bench/main.exe -- table2     -- a single experiment
     dune exec bench/main.exe -- table1 fig9 --quick

   Experiments: table1 table2 fig5 fig8 fig9 fig10 fig11 fig12 ablation
   sparse scale yield bechamel *)

let experiments =
  [
    ("table1", Exp_table1.run);
    ("table2", Exp_table2.run);
    ("fig5", Exp_fig5.run);
    ("fig8", Exp_fig8.run);
    ("fig9", Exp_fig9.run);
    ("fig10", Exp_fig10.run);
    ("fig11", Exp_fig11.run);
    ("fig12", Exp_fig12.run);
    ("ablation", Exp_ablation.run);
    ("sparse", Exp_sparse.run);
    ("scale", Exp_scale.run);
    ("yield", Exp_yield.run);
    ("bechamel", Bechamel_suite.run);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  let named =
    List.filter (fun a -> not (String.length a >= 2 && String.sub a 0 2 = "--")) args
  in
  let to_run =
    match named with
    | [] -> experiments
    | names ->
      List.map
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> (name, f)
          | None ->
            Format.eprintf "unknown experiment %s; available: %s@." name
              (String.concat " " (List.map fst experiments));
            exit 2)
        names
  in
  Format.printf
    "varsim experiment harness — reproduction of Kim/Jones/Horowitz,@.\"Fast, Non-Monte-Carlo Estimation of Transient Performance Variation@.Due to Device Mismatch\" (DAC'07 / TCAS-I'10)%s@."
    (if quick then "  [--quick]" else "");
  let t0 = Unix.gettimeofday () in
  List.iter (fun (_name, f) -> f ~quick) to_run;
  Format.printf "@.total harness time: %.1f s@." (Unix.gettimeofday () -. t0)
