type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* the writer's half of the string escapes [parse] reads back *)
let add_escaped b s =
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let escape s =
  let b = Buffer.create (String.length s + 8) in
  add_escaped b s;
  Buffer.contents b

let add_quoted b s =
  Buffer.add_char b '"';
  add_escaped b s;
  Buffer.add_char b '"'

let fail pos msg =
  raise (Parse_error (Printf.sprintf "at offset %d: %s" pos msg))

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | Some d -> fail !pos (Printf.sprintf "expected %c, found %c" c d)
    | None -> fail !pos (Printf.sprintf "expected %c, found end of input" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail !pos (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail !pos "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some '"' -> Buffer.add_char b '"'; advance ()
         | Some '\\' -> Buffer.add_char b '\\'; advance ()
         | Some '/' -> Buffer.add_char b '/'; advance ()
         | Some 'n' -> Buffer.add_char b '\n'; advance ()
         | Some 'r' -> Buffer.add_char b '\r'; advance ()
         | Some 't' -> Buffer.add_char b '\t'; advance ()
         | Some 'b' -> Buffer.add_char b '\b'; advance ()
         | Some 'f' -> Buffer.add_char b '\012'; advance ()
         | Some 'u' ->
           advance ();
           if !pos + 4 > n then fail !pos "truncated \\u escape";
           let hex = String.sub s !pos 4 in
           let code =
             try int_of_string ("0x" ^ hex)
             with _ -> fail !pos "bad \\u escape"
           in
           (* keep it simple: BMP code points as a raw byte when ASCII,
              '?' otherwise — the writers only escape control chars *)
           Buffer.add_char b (if code < 128 then Char.chr code else '?');
           pos := !pos + 4
         | _ -> fail !pos "bad escape");
        go ()
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match float_of_string_opt text with
    | Some v -> v
    | None -> fail start (Printf.sprintf "bad number %S" text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail !pos "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (key, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> fail !pos "expected , or } in object"
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> fail !pos "expected , or ] in array"
        in
        elements ();
        List (List.rev !items)
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail !pos "trailing garbage after document";
  v

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function
  | List xs -> xs
  | _ -> invalid_arg "Obs_json.to_list"

let to_num = function
  | Num v -> v
  | _ -> invalid_arg "Obs_json.to_num"

let to_string = function
  | Str s -> s
  | _ -> invalid_arg "Obs_json.to_string"
