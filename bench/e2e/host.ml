(* Process plumbing and host context: child processes the workloads
   spawn, the /proc readings behind peak_rss_mb and the daemon's CPU
   time, and the host context recorded beside every result (context,
   never a metric). *)

(* children still running; the watchdog kills and reaps them *)
let live : int list ref = ref []

(* stdout to /dev/null (the last stdout line of this benchmark is its
   result), stderr appended to [log] *)
let spawn ~log prog args =
  let out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close err)
      (fun () ->
        Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin out
          err)
  in
  live := pid :: !live;
  pid

let rec wait pid =
  match Unix.waitpid [] pid with
  | _, st ->
    live := List.filter (( <> ) pid) !live;
    st
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid

let status_ok = function Unix.WEXITED 0 -> true | _ -> false

let describe_status = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s

(* Kill every live child and leave without a result line once [seconds]
   have passed: a hung daemon or worker must not outlive the run. *)
let arm_watchdog seconds =
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline "e2e: watchdog expired, stopping";
         List.iter
           (fun p ->
             (try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ());
             try ignore (Unix.waitpid [] p) with Unix.Unix_error _ -> ())
           !live;
         Unix._exit 3));
  ignore (Unix.alarm seconds)

(* ------------------------------------------------------------- /proc *)

let read_opt path = try Some (Doc.read_file path) with Sys_error _ -> None

(* the "VmHWM:  N kB" line of /proc/<pid>/status, in MiB *)
let peak_rss_mib pid =
  match read_opt (Printf.sprintf "/proc/%s/status" pid) with
  | None -> None
  | Some s ->
    String.split_on_char '\n' s
    |> List.find_map (fun l ->
           match String.split_on_char ':' l with
           | [ "VmHWM"; v ] ->
             Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                 float_of_int kb /. 1024.0)
           | _ -> None)

(* USER_HZ: the unit of /proc tick counts on every Linux ABI *)
let ticks_per_s = 100.0

(* utime + stime of a live process, seconds *)
let cpu_s pid =
  match read_opt (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> None
  | Some s -> (
    match String.rindex_opt s ')' with
    | None -> None
    | Some i -> (
      let rest =
        String.sub s (i + 2) (String.length s - i - 2)
        |> String.split_on_char ' '
        |> Array.of_list
      in
      (* rest.(0) is field 3 (state); utime and stime are fields 14, 15 *)
      match float_of_string_opt rest.(11), float_of_string_opt rest.(12) with
      | Some u, Some k -> Some ((u +. k) /. ticks_per_s)
      | _ -> None
      | exception Invalid_argument _ -> None))

let own_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let children_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* ------------------------------------------------------ host context *)

type snapshot = { loadavg : string; steal : float; total : float }

let snapshot () =
  let loadavg =
    match read_opt "/proc/loadavg" with
    | Some s -> (
      match String.split_on_char ' ' s with
      | a :: b :: c :: _ -> String.concat " " [ a; b; c ]
      | _ -> String.trim s)
    | None -> "unknown"
  in
  let steal, total =
    match read_opt "/proc/stat" with
    | None -> (0.0, 0.0)
    | Some s -> (
      match String.split_on_char '\n' s with
      | cpu :: _ ->
        let f =
          String.split_on_char ' ' cpu
          |> List.filter_map (fun x ->
                 if x = "" || x = "cpu" then None else float_of_string_opt x)
        in
        let steal = match List.nth_opt f 7 with Some v -> v | None -> 0.0 in
        (steal, List.fold_left ( +. ) 0.0 f)
      | [] -> (0.0, 0.0))
  in
  { loadavg; steal; total }

let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | ic -> (
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic, int_of_string_opt (String.trim line) with
    | Unix.WEXITED 0, Some n -> n
    | _ -> Domain.recommended_domain_count ()
    | exception Unix.Unix_error _ -> Domain.recommended_domain_count ())
  | exception Unix.Unix_error _ -> Domain.recommended_domain_count ()

let context before after =
  let d_total = after.total -. before.total in
  let d_steal = after.steal -. before.steal in
  Obs_json.Obj
    [ ("nproc", Doc.int (nproc ()));
      ("loadavg_before", Doc.str before.loadavg);
      ("loadavg_after", Doc.str after.loadavg);
      ("steal_s", Doc.num (d_steal /. ticks_per_s));
      ("steal_share",
       Doc.num (if d_total > 0.0 then d_steal /. d_total else 0.0));
      ("ocaml", Doc.str Sys.ocaml_version);
      ("git_describe",
       Doc.str (Option.value (Version.git_describe ()) ~default:"none"));
      ("provenance", Doc.str (Version.provenance ())) ]
