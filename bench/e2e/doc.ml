(* JSON documents (written over the reader's own [Obs_json.t] so result
   files read back with [Obs_json.parse]), order statistics and small
   file helpers shared by every workload. *)

module J = Obs_json

let num v = J.Num v
let int n = J.Num (float_of_int n)
let str s = J.Str s

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* every digit of a measured value: the shortest decimal that reads
   back to the same float *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let rec write b = function
  | J.Null -> Buffer.add_string b "null"
  | J.Bool x -> Buffer.add_string b (string_of_bool x)
  | J.Num v -> Buffer.add_string b (number v)
  | J.Str s -> escape b s
  | J.List xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b ", ";
        write b x)
      xs;
    Buffer.add_char b ']'
  | J.Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, x) ->
        if i > 0 then Buffer.add_string b ", ";
        escape b k;
        Buffer.add_string b ": ";
        write b x)
      kvs;
    Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 1024 in
  write b j;
  Buffer.contents b

let field k j = J.member k j

let num_field k j =
  match J.member k j with Some (J.Num v) -> Some v | _ -> None

let str_field k j =
  match J.member k j with Some (J.Str s) -> Some s | _ -> None

(* index of the first occurrence of [key] in [s] *)
let find_sub s key =
  let n = String.length s and k = String.length key in
  let rec go i =
    if i + k > n then None
    else if String.sub s i k = key then Some i
    else go (i + 1)
  in
  go 0

let contains s key = Option.is_some (find_sub s key)

(* ---------------------------------------------------------- statistics *)

(* linear interpolation between closest ranks (numpy's default) *)
let quantile xs q =
  match xs with
  | [] -> nan
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* The q-quantile of values rounded to multiples of [width]: each value
   stands for a uniform spread over its rounding interval (the grouped
   data estimate), so the result moves continuously instead of jumping
   between grid points. *)
let quantile_rounded ~width xs q =
  match xs with
  | [] -> nan
  | _ ->
    let a = Array.of_list (List.map (fun x -> Float.round (x /. width)) xs) in
    Array.sort compare a;
    let n = Array.length a in
    let target = q *. float_of_int n in
    let rec go i =
      let j = ref i in
      while !j < n && a.(!j) = a.(i) do incr j done;
      if float_of_int !j >= target || !j >= n then
        (a.(i) -. 0.5 +. ((target -. float_of_int i) /. float_of_int (!j - i))) *. width
      else go !j
    in
    go 0

(* ---------------------------------------------------------------- files *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let lines path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> String.trim l <> "")

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
