(* --compare A/ B/: two sets of result files (every *.result.json and
   *.metrics.json under each directory, one file per run).  Prints each
   workload's median and quartiles per metric for both sets, flags a
   metric whose B median is worse than A's by more than its bound, and
   diffs the per-job work counters of the deterministic workloads
   exactly (equal seeds must give equal counts). *)

type run = {
  workload : string;
  traced : bool;
  seed : int;
  metrics : (string * float) list;
}

let rec files dir =
  match Sys.readdir dir with
  | entries ->
    Array.to_list entries
    |> List.sort compare
    |> List.concat_map (fun e ->
           let p = Filename.concat dir e in
           if Sys.is_directory p then files p
           else if
             Filename.check_suffix e ".result.json"
             || Filename.check_suffix e ".metrics.json"
           then [ p ]
           else [])
  | exception Sys_error _ -> []

let load path =
  match Obs_json.parse (Doc.read_file path) with
  | j -> (
    match Doc.str_field "workload" j, Doc.field "metrics" j with
    | Some workload, Some (Obs_json.Obj ms) ->
      Some
        {
          workload;
          traced = Doc.field "traced" j = Some (Obs_json.Bool true);
          seed = int_of_float (Option.value (Doc.num_field "seed" j) ~default:0.0);
          metrics =
            List.filter_map
              (fun (n, m) -> Option.map (fun v -> (n, v)) (Doc.num_field "value" m))
              ms;
        }
    | _ -> None)
  | exception (Sys_error _ | Obs_json.Parse_error _) -> None

let deterministic = [ "corpus-cold"; "large-sigma"; "yield-sram"; "sweep-process" ]

let run ~bench a b =
  let ra = List.filter_map load (files a) and rb = List.filter_map load (files b) in
  let declared =
    match Doc.field "end_to_end" bench with
    | Some (Obs_json.List ms) ->
      List.filter_map
        (fun m ->
          match
            (Doc.str_field "name" m, Doc.num_field "bound" m, Doc.str_field "better" m)
          with
          | Some n, Some bound, Some better -> Some (n, (bound, better = "higher"))
          | _ -> None)
        ms
    | _ -> []
  in
  let bound_of n =
    match List.assoc_opt n declared with
    | Some b -> Some b
    | None ->
      List.find_map
        (fun (m, _, better) ->
          if m <> n then None
          else Some (Catalog.workload_specific_bound, better = Catalog.Higher))
        Catalog.workload_specific
  in
  let flags = ref 0 in
  Printf.printf "%-14s %-20s %38s %38s %8s %6s\n" "workload" "metric"
    "A median [q1, q3] (runs)" "B median [q1, q3] (runs)" "change" "bound";
  let values runs w traced n =
    List.filter_map
      (fun r ->
        if r.workload = w && r.traced = traced then List.assoc_opt n r.metrics
        else None)
      runs
  in
  let summary xs =
    Printf.sprintf "%.4g [%.4g, %.4g] (%d)" (Doc.median xs) (Doc.quantile xs 0.25)
      (Doc.quantile xs 0.75) (List.length xs)
  in
  List.iter
    (fun w ->
      List.iter
        (fun (n, _, _) ->
          match values ra w false n, values rb w false n, bound_of n with
          | (_ :: _ as xa), (_ :: _ as xb), Some (bound, higher) ->
            let ma = Doc.median xa and mb = Doc.median xb in
            let change =
              if ma <> 0.0 then (mb -. ma) /. ma else if mb = 0.0 then 0.0 else infinity
            in
            let worse = if higher then -.change else change in
            let flag = worse > bound in
            if flag then incr flags;
            Printf.printf "%-14s %-20s %38s %38s %+7.1f%% %5.0f%%%s\n" w n (summary xa)
              (summary xb) (100.0 *. change) (100.0 *. bound)
              (if flag then "  WORSE" else "")
          | _ -> ())
        (Catalog.end_to_end @ Catalog.workload_specific);
      if List.mem w deterministic then begin
        let traced = List.filter (fun r -> r.workload = w && r.traced) (ra @ rb) in
        let differ =
          List.filter
            (fun c ->
              List.exists
                (fun r ->
                  List.exists
                    (fun r' ->
                      r'.seed = r.seed
                      && List.assoc_opt c r'.metrics <> List.assoc_opt c r.metrics)
                    traced)
                traced)
            Catalog.work_counters
        in
        flags := !flags + List.length differ;
        if traced <> [] then
          Printf.printf "%-14s %-20s %s\n" w "work counters"
            (match differ with
             | [] ->
               Printf.sprintf "%d identical across %d traced runs"
                 (List.length Catalog.work_counters) (List.length traced)
             | cs -> "DIFFER: " ^ String.concat ", " cs)
      end)
    Catalog.workloads;
  if !flags > 0 then 1 else 0
