type entry = {
  hash : string;
  id : int;
  outcome : string;
  metric : string;
  value : float option;
  degraded : int;
  attempts : int;
  elapsed_s : float;
}

type t = { fd : Unix.file_descr; mutex : Mutex.t }

let entry_to_json e =
  let value =
    match e.value with
    | Some v -> Printf.sprintf "\"%.17g\"" v
    | None -> "null"
  in
  Printf.sprintf
    "{\"hash\":\"%s\",\"id\":%d,\"outcome\":\"%s\",\"metric\":\"%s\",\"value\":%s,\"degraded\":%d,\"attempts\":%d,\"elapsed_s\":%.3f}"
    (Obs_json.escape e.hash) e.id (Obs_json.escape e.outcome)
    (Obs_json.escape e.metric)
    value e.degraded e.attempts e.elapsed_s

let entry_of_json line =
  match Obs_json.parse line with
  | exception Obs_json.Parse_error _ -> None
  | j -> (
    let str k = Option.map Obs_json.to_string (Obs_json.member k j) in
    let num k = Option.map Obs_json.to_num (Obs_json.member k j) in
    match str "hash", num "id", str "outcome", str "metric" with
    | Some hash, Some id, Some outcome, Some metric -> (
      let value =
        match Obs_json.member "value" j with
        | Some (Obs_json.Str s) -> Some (float_of_string s)
        | Some (Obs_json.Num v) -> Some v
        | _ -> None
      in
      match
        ( value,
          Option.value (num "degraded") ~default:0.0,
          Option.value (num "attempts") ~default:1.0,
          Option.value (num "elapsed_s") ~default:0.0 )
      with
      | value, degraded, attempts, elapsed_s ->
        Some
          {
            hash;
            id = int_of_float id;
            outcome;
            metric;
            value;
            degraded = int_of_float degraded;
            attempts = int_of_float attempts;
            elapsed_s;
          }
      | exception _ -> None)
    | _ -> None)

let open_append path =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  { fd; mutex = Mutex.create () }

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      let k = Unix.write fd b off (n - off) in
      go (off + k)
  in
  go 0

let append t e =
  Faultsim.check_exn "sweep.journal.write";
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      write_all t.fd (entry_to_json e ^ "\n");
      Unix.fsync t.fd;
      Obs.count "sweep.journal.appends" 1)

let close t = Unix.close t.fd

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error _ -> []
  | text ->
    (* split keeping track of whether the final line was terminated: an
       unterminated tail is the partial write of a crashed append *)
    let lines = String.split_on_char '\n' text in
    let rec complete acc = function
      | [] | [ _ ] -> List.rev acc  (* last element: tail after final \n *)
      | l :: rest -> complete (l :: acc) rest
    in
    let rec take acc = function
      | [] -> List.rev acc
      | l :: rest -> (
        if String.trim l = "" then take acc rest
        else
          match entry_of_json l with
          | Some e -> take (e :: acc) rest
          | None -> List.rev acc (* torn line: stop at the good prefix *))
    in
    take [] (complete [] lines)
