(* Build/runtime identification — the provenance string stamped into
   serve responses and on-disk cache entries, and the body of the
   `varsim version` subcommand. *)

let version = "1.1.0"

(* best-effort: running from a git checkout yields a describe string,
   anywhere else (installed binary, no git, no repo) yields None — the
   lookup must never fail or block the CLI *)
let git_describe () =
  match
    Unix.open_process_in "git describe --always --dirty --tags 2>/dev/null"
  with
  | ic -> (
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> Some line
    | Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> None
    | exception Unix.Unix_error _ -> None)
  | exception (Unix.Unix_error _ | Sys_error _) -> None

let ocaml = Sys.ocaml_version

(* the default engine knobs a reader of a cache entry or a serve
   response might need to reproduce a result *)
let knob_defaults () =
  [
    ("linsys.auto_threshold", string_of_int Linsys.auto_threshold);
    ("gmres.restart", string_of_int Gmres.default_restart);
    ("pss.steps", "200");
    ("pss.tol", "1e-7");
    ("lptv.f_offset", "1");
  ]

(* one line, safe to embed in JSON (no quotes or control characters
   appear in any component).  Built once per process: every job outcome
   and serve response carries it, and the git subprocess costs
   milliseconds.  An atomic rather than a lazy because serve lanes may
   ask for it from several domains at once; a lost race only computes
   the same string twice, and every caller gets the stored one. *)
let provenance_memo = Atomic.make None

let provenance () =
  match Atomic.get provenance_memo with
  | Some p -> p
  | None ->
    let git =
      match git_describe () with Some d -> " (" ^ d ^ ")" | None -> ""
    in
    let p =
      Printf.sprintf "varsim/%s%s ocaml/%s fingerprint/%s" version git ocaml
        Fingerprint.scheme_version
    in
    ignore (Atomic.compare_and_set provenance_memo None (Some p) : bool);
    Option.get (Atomic.get provenance_memo)

let pp ppf () =
  Format.fprintf ppf "@[<v>varsim %s@," version;
  (match git_describe () with
   | Some d -> Format.fprintf ppf "git: %s@," d
   | None -> ());
  Format.fprintf ppf "ocaml: %s@," ocaml;
  Format.fprintf ppf "fingerprint scheme: %s@," Fingerprint.scheme_version;
  Format.fprintf ppf "default knobs:@,";
  List.iter
    (fun (k, v) -> Format.fprintf ppf "  %s = %s@," k v)
    (knob_defaults ());
  Format.fprintf ppf "@]"
