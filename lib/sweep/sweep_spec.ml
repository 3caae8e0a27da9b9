type axis = { axis_name : string; values : float list }

type target = Deck of string | Cell of string

type analysis = Op | Dc_match | Mismatch | Freq

type t = {
  target : target;
  analysis : analysis;
  output : string;
  period : float option;
  steps : int option;
  axes : axis list;
  point_budget_s : float option;
  max_retries : int;
  retry_backoff_s : float;
}

type point = { id : int; assigns : (string * float) list }

let engine_axis_names = [ "steps"; "period" ]

(* one name -> setter table per built-in cell: the parser validates axis
   names against it and the worker applies a point's assignment through
   it, so no sweepable name can parse and then not take effect *)
let mirror_params =
  [ ("i_ref", fun p v -> { p with Current_mirror.i_ref = v });
    ("w", fun p v -> { p with Current_mirror.w = v });
    ("l", fun p v -> { p with Current_mirror.l = v });
    ("r_load", fun p v -> { p with Current_mirror.r_load = v });
    ("vdd", fun p v -> { p with Current_mirror.vdd = v }) ]

let comparator_params =
  [ ("vdd", fun p v -> { p with Strongarm.vdd = v });
    ("vcm", fun p v -> { p with Strongarm.vcm = v });
    ("w_in", fun p v -> { p with Strongarm.w_in = v });
    ("w_tail", fun p v -> { p with Strongarm.w_tail = v });
    ("w_cross_n", fun p v -> { p with Strongarm.w_cross_n = v });
    ("w_cross_p", fun p v -> { p with Strongarm.w_cross_p = v });
    ("w_pre", fun p v -> { p with Strongarm.w_pre = v });
    ("w_pre_int", fun p v -> { p with Strongarm.w_pre_int = v });
    ("w_eq", fun p v -> { p with Strongarm.w_eq = v });
    ("l", fun p v -> { p with Strongarm.l = v });
    ("c_out", fun p v -> { p with Strongarm.c_out = v });
    ("clk_period", fun p v -> { p with Strongarm.clk_period = v });
    ("clk_transition", fun p v -> { p with Strongarm.clk_transition = v });
    ("gm_fb", fun p v -> { p with Strongarm.gm_fb = v });
    ("c_fb", fun p v -> { p with Strongarm.c_fb = v }) ]

let ringosc_params =
  [ ("vdd", fun p v -> { p with Ring_osc.vdd = v });
    ("wn", fun p v -> { p with Ring_osc.wn = v });
    ("wp", fun p v -> { p with Ring_osc.wp = v });
    ("l", fun p v -> { p with Ring_osc.l = v });
    ("c_stage", fun p v -> { p with Ring_osc.c_stage = v });
    ("mismatch_scale", fun p v -> { p with Ring_osc.mismatch_scale = v }) ]

let cell_param_names = function
  | "mirror" -> List.map fst mirror_params
  | "comparator" -> List.map fst comparator_params
  | "ringosc" -> List.map fst ringosc_params
  | c -> invalid_arg ("Sweep_spec.cell_param_names: unknown cell " ^ c)

let known_cells = [ "mirror"; "comparator"; "ringosc" ]

let value_to_string v = Printf.sprintf "%.17g" v

(* ------------------------------------------------------------------ *)
(* parsing *)

let analysis_of_string = function
  | "op" -> Some Op
  | "dcmatch" -> Some Dc_match
  | "mismatch" -> Some Mismatch
  | "freq" -> Some Freq
  | _ -> None

let analysis_to_string = function
  | Op -> "op"
  | Dc_match -> "dcmatch"
  | Mismatch -> "mismatch"
  | Freq -> "freq"

(* [lo:hi:n] linear ramp, or a comma list of SPICE-suffixed numbers *)
let parse_axis_values s =
  match String.split_on_char ':' (String.trim s) with
  | [ lo; hi; n ] -> begin
    match
      ( Spice_lexer.parse_number (String.trim lo),
        Spice_lexer.parse_number (String.trim hi),
        int_of_string_opt (String.trim n) )
    with
    | Some lo, Some hi, Some n when n >= 2 ->
      Ok
        (List.init n (fun i ->
             lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1))))
    | Some lo, _, Some 1 -> Ok [ lo ]
    | _ -> Error "expected lo:hi:n with n >= 1"
  end
  | _ ->
    let toks =
      String.split_on_char ',' s |> List.map String.trim
      |> List.filter (fun t -> t <> "")
    in
    if toks = [] then Error "empty value list"
    else
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | t :: rest -> (
          match Spice_lexer.parse_number t with
          | Some v -> go (v :: acc) rest
          | None -> Error (Printf.sprintf "bad value %S" t))
      in
      go [] toks

type partial = {
  mutable p_target : target option;
  mutable p_analysis : analysis option;
  mutable p_output : string option;
  mutable p_period : float option;
  mutable p_steps : int option;
  mutable p_axes : axis list;  (* reversed *)
  mutable p_point_budget : float option;
  mutable p_max_retries : int;
  mutable p_backoff : float;
}

let empty_partial () =
  {
    p_target = None;
    p_analysis = None;
    p_output = None;
    p_period = None;
    p_steps = None;
    p_axes = [];
    p_point_budget = None;
    p_max_retries = 2;
    p_backoff = 0.1;
  }

let positive_number s =
  match Spice_lexer.parse_number (String.trim s) with
  | Some v when v > 0.0 -> Some v
  | _ -> None

let parse_line p ln line =
  let err fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" ln m)) fmt in
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let line = String.trim line in
  if line = "" then Ok ()
  else
    match String.index_opt line '=' with
    | None -> err "expected key = value"
    | Some i ->
      let key = String.trim (String.sub line 0 i) in
      let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
      let axis_name =
        match String.split_on_char ' ' key with
        | [ "sweep"; name ] when name <> "" -> Some name
        | _ -> (
          (* tolerate any whitespace run between "sweep" and the name *)
          match String.split_on_char '\t' key with
          | [ "sweep"; name ] when name <> "" -> Some name
          | _ ->
            if String.length key > 6 && String.sub key 0 6 = "sweep " then
              Some (String.trim (String.sub key 6 (String.length key - 6)))
            else None)
      in
      (match key, axis_name with
       | _, Some name -> begin
         let name = String.lowercase_ascii name in
         if List.exists (fun a -> a.axis_name = name) p.p_axes then
           err "duplicate axis %S" name
         else
           match parse_axis_values v with
           | Ok values ->
             p.p_axes <- { axis_name = name; values } :: p.p_axes;
             Ok ()
           | Error m -> err "axis %s: %s" name m
       end
       | "deck", _ ->
         if p.p_target <> None then err "duplicate target"
         else begin
           p.p_target <- Some (Deck v);
           Ok ()
         end
       | "cell", _ ->
         if p.p_target <> None then err "duplicate target"
         else
           let c = String.lowercase_ascii v in
           if List.mem c known_cells then begin
             p.p_target <- Some (Cell c);
             Ok ()
           end
           else
             err "unknown cell %S (expected %s)" v
               (String.concat ", " known_cells)
       | "analysis", _ -> begin
         match analysis_of_string (String.lowercase_ascii v) with
         | Some a ->
           p.p_analysis <- Some a;
           Ok ()
         | None -> err "unknown analysis %S (op | dcmatch | mismatch | freq)" v
       end
       | "output", _ ->
         p.p_output <- Some (String.lowercase_ascii v);
         Ok ()
       | "period", _ -> begin
         match positive_number v with
         | Some x ->
           p.p_period <- Some x;
           Ok ()
         | None -> err "period: expected a positive time, e.g. 4n"
       end
       | "steps", _ -> begin
         match int_of_string_opt v with
         | Some n when n >= 2 ->
           p.p_steps <- Some n;
           Ok ()
         | _ -> err "steps: expected an integer >= 2"
       end
       | "point-budget", _ -> begin
         match positive_number v with
         | Some x ->
           p.p_point_budget <- Some x;
           Ok ()
         | None -> err "point-budget: expected a positive time"
       end
       | "max-retries", _ -> begin
         match int_of_string_opt v with
         | Some n when n >= 0 ->
           p.p_max_retries <- n;
           Ok ()
         | _ -> err "max-retries: expected an integer >= 0"
       end
       | "retry-backoff", _ -> begin
         match positive_number v with
         | Some x ->
           p.p_backoff <- x;
           Ok ()
         | None -> err "retry-backoff: expected a positive time"
       end
       | k, _ -> err "unknown key %S" k)

let validate p =
  match p.p_target with
  | None -> Error "spec names no target: add deck = <path> or cell = <name>"
  | Some target -> (
    let analysis = Option.value p.p_analysis ~default:Dc_match in
    let output =
      match p.p_output, target, analysis with
      | Some o, _, _ -> Some o
      | None, Cell "mirror", _ -> Some Current_mirror.output_node
      | None, Cell "comparator", _ -> Some Strongarm.vos_node
      | None, Cell "ringosc", _ -> Some Ring_osc.anchor
      | None, (Cell _ | Deck _), _ -> None
    in
    match output with
    | None -> Error "spec names no output node: add output = <node>"
    | Some output -> (
      let axes = List.rev p.p_axes in
      let allowed =
        engine_axis_names
        @ (match target with Cell c -> cell_param_names c | Deck _ -> [])
      in
      let bad =
        List.filter (fun a -> not (List.mem a.axis_name allowed)) axes
      in
      match bad with
      | a :: _ ->
        Error
          (Printf.sprintf
             "axis %S is not a parameter of the target (valid: %s)"
             a.axis_name
             (String.concat ", " allowed))
      | [] ->
        let period =
          match p.p_period, target with
          | (Some _ as x), _ -> x
          | None, Cell "comparator" ->
            Some Strongarm.default_params.Strongarm.clk_period
          | None, _ -> None
        in
        let has_period_axis =
          List.exists (fun a -> a.axis_name = "period") axes
        in
        if analysis = Mismatch && period = None && not has_period_axis then
          Error "mismatch analysis needs period = <T> (or a period axis)"
        else if analysis = Freq && target <> Cell "ringosc" then
          Error "freq analysis is only supported for cell = ringosc"
        else
          Ok
            {
              target;
              analysis;
              output;
              period;
              steps = p.p_steps;
              axes;
              point_budget_s = p.p_point_budget;
              max_retries = p.p_max_retries;
              retry_backoff_s = p.p_backoff;
            }))

let parse text =
  let p = empty_partial () in
  let lines = String.split_on_char '\n' text in
  let rec go ln = function
    | [] -> validate p
    | line :: rest -> (
      match parse_line p ln line with
      | Ok () -> go (ln + 1) rest
      | Error _ as e -> e)
  in
  go 1 lines

let load_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> parse text
  | exception Sys_error m -> Error m

(* ------------------------------------------------------------------ *)
(* grid expansion and hashing *)

let expand spec =
  let axes = Array.of_list spec.axes in
  let sizes = Array.map (fun a -> List.length a.values) axes in
  let total = Array.fold_left ( * ) 1 sizes in
  Array.init total (fun id ->
      (* row-major: the last declared axis varies fastest *)
      let assigns = ref [] in
      let rem = ref id in
      for k = Array.length axes - 1 downto 0 do
        let n = sizes.(k) in
        let j = !rem mod n in
        rem := !rem / n;
        assigns :=
          (axes.(k).axis_name, List.nth axes.(k).values j) :: !assigns
      done;
      { id; assigns = !assigns })

(* Deck targets hash by elaborated CONTENT (the canonical deck
   fingerprint), not by file name: editing a deck invalidates its
   journal entries instead of silently resuming over stale results,
   and renaming/moving the file keeps them valid.  Memoized per path —
   the supervisor hashes every point of a grid against one deck.  An
   unreadable/unparsable deck falls back to a path-keyed tag so the
   hash itself never raises (the sweep then fails where it always did,
   with a per-point error). *)
let deck_fp_memo : (string, string) Hashtbl.t = Hashtbl.create 4
let deck_fp_mutex = Mutex.create ()

let target_fingerprint = function
  | Cell c -> "cell:" ^ c
  | Deck path ->
    Mutex.lock deck_fp_mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock deck_fp_mutex) @@ fun () ->
    (match Hashtbl.find_opt deck_fp_memo path with
     | Some fp -> fp
     | None ->
       let fp =
         match Spice_elab.load_file path with
         | deck -> "deck:" ^ Spice_elab.fingerprint deck
         | exception _ -> "deckpath:" ^ path
       in
       Hashtbl.add deck_fp_memo path fp;
       fp)

(* hash scheme v3 ("phv3", docs/robustness.md): built on the canonical
   Fingerprint accumulator shared with the job pipeline; v3 dropped the
   linear-solver knobs, which the circuit size now decides.  Journals
   written by an older scheme no longer match — resume treats their
   points as not-yet-done and recomputes, which is safe. *)
let point_hash spec point =
  let fp = Fingerprint.create "phv3" in
  Fingerprint.str fp (target_fingerprint spec.target);
  Fingerprint.str fp (analysis_to_string spec.analysis);
  Fingerprint.str fp spec.output;
  (match spec.period with
   | Some p -> Fingerprint.field fp "T" (Printf.sprintf "%.17g" p)
   | None -> ());
  (match spec.steps with
   | Some s -> Fingerprint.field fp "S" (string_of_int s)
   | None -> ());
  Fingerprint.list fp
    (fun fp (name, v) -> Fingerprint.field fp name (value_to_string v))
    point.assigns;
  Fingerprint.digest fp
