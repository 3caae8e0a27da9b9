(* Content-addressed on-disk byte store.

   One file per key under the store directory, named by a digest of the
   key.  Entries are self-verifying:

     varsim-cache 1 <keylen> <metalen> <payloadlen> <md5(payload)>\n
     <key bytes><meta bytes><payload bytes>

   and written atomically (tmp file in the same directory, fsync, then
   rename), mirroring the sweep artifact discipline: a reader never
   observes a half-written entry, and any torn, truncated or corrupted
   entry — wrong magic, short read, checksum or key mismatch — is a
   miss, never an error.  The "cache.read"/"cache.write" fault sites
   prove the compute-through property: an injected store failure only
   ever costs recomputation (docs/serving.md). *)

type t = { dir : string }

let magic = "varsim-cache"
let format_version = 1

let open_dir dir =
  match
    let rec ensure d =
      if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
        ensure (Filename.dirname d);
        Unix.mkdir d 0o755
      end
    in
    ensure dir;
    if Sys.is_directory dir then Ok { dir }
    else Error (dir ^ ": not a directory")
  with
  | r -> r
  | exception Unix.Unix_error (e, _, _) ->
    Error (dir ^ ": " ^ Unix.error_message e)
  | exception Sys_error m -> Error m

let dir t = t.dir

let entry_path t ~key =
  Filename.concat t.dir (Digest.to_hex (Digest.string key) ^ ".vsc")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* parse + verify one entry; any malformation is None *)
let decode ~key bytes =
  match String.index_opt bytes '\n' with
  | None -> None
  | Some nl -> (
    let header = String.sub bytes 0 nl in
    match String.split_on_char ' ' header with
    | [ m; v; klen; mlen; plen; sum ]
      when m = magic && v = string_of_int format_version -> (
      match
        (int_of_string_opt klen, int_of_string_opt mlen, int_of_string_opt plen)
      with
      | Some klen, Some mlen, Some plen
        when klen >= 0 && mlen >= 0 && plen >= 0
             && String.length bytes = nl + 1 + klen + mlen + plen ->
        let stored_key = String.sub bytes (nl + 1) klen in
        let meta = String.sub bytes (nl + 1 + klen) mlen in
        let payload = String.sub bytes (nl + 1 + klen + mlen) plen in
        if stored_key = key && Digest.to_hex (Digest.string payload) = sum then
          Some (payload, meta)
        else None
      | _ -> None)
    | _ -> None)

let get_entry t ~key =
  match Faultsim.check_exn "cache.read" with
  | () -> begin
    let path = entry_path t ~key in
    match read_file path with
    | bytes -> begin
      match decode ~key bytes with
      | Some _ as hit ->
        Obs.count "cache.disk.hits" 1;
        hit
      | None ->
        (* torn or corrupted entry: a miss, counted so a flaky disk is
           visible in --metrics *)
        Obs.count "cache.disk.corrupt" 1;
        Obs.count "cache.disk.misses" 1;
        None
    end
    | exception Sys_error _ ->
      Obs.count "cache.disk.misses" 1;
      None
  end
  | exception Faultsim.Injected _ ->
    (* injected read failure: degrade to a miss (compute-through) *)
    Obs.count "cache.disk.read_errors" 1;
    Obs.count "cache.disk.misses" 1;
    None

let get t ~key = Option.map fst (get_entry t ~key)

let encode ~key ~meta payload =
  let b = Buffer.create (String.length payload + 128) in
  Buffer.add_string b
    (Printf.sprintf "%s %d %d %d %d %s\n" magic format_version
       (String.length key) (String.length meta) (String.length payload)
       (Digest.to_hex (Digest.string payload)));
  Buffer.add_string b key;
  Buffer.add_string b meta;
  Buffer.add_string b payload;
  Buffer.contents b

(* each write gets its own tmp file: lanes of one process that store
   the same key would otherwise share one, and the loser's rename would
   fail as a spurious write error *)
let tmp_seq = Atomic.make 0

let write_atomic path bytes =
  let dir = Filename.dirname path in
  let tmp =
    Filename.concat dir
      (Printf.sprintf ".tmp.%d.%d.%s" (Unix.getpid ())
         (Atomic.fetch_and_add tmp_seq 1) (Filename.basename path))
  in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  (match
     let n = String.length bytes in
     let written = ref 0 in
     while !written < n do
       written :=
         !written
         + Unix.write_substring fd bytes !written (n - !written)
     done;
     Unix.fsync fd
   with
   | () -> Unix.close fd
   | exception e ->
     Unix.close fd;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Unix.rename tmp path

let put t ~key ?(meta = "") payload =
  match
    Faultsim.check_exn "cache.write";
    write_atomic (entry_path t ~key) (encode ~key ~meta payload)
  with
  | () -> Obs.count "cache.disk.writes" 1
  | exception (Faultsim.Injected _ | Sys_error _ | Unix.Unix_error _) ->
    (* a failed write never fails the analysis: the entry is simply not
       cached and the next run recomputes *)
    Obs.count "cache.disk.write_errors" 1
