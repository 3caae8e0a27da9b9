(* Canonical content hashing.

   A fingerprint is the MD5 of a canonical byte string assembled from
   typed fields.  Fields are length-prefixed so no separator character
   can collide with field content, floats are rendered with %.17g (the
   shortest round-trippable decimal form is not needed — 17 significant
   digits are always exact for a binary64), and every fingerprint is
   versioned so a change to any canonical form invalidates old digests
   instead of silently colliding with them. *)

type t = { buf : Buffer.t }

(* bump when any canonical serialization changes shape *)
let scheme_version = "fp2"

let create kind =
  let buf = Buffer.create 256 in
  Buffer.add_string buf scheme_version;
  Buffer.add_char buf ':';
  Buffer.add_string buf kind;
  { buf }

let raw t s =
  Buffer.add_char t.buf '|';
  Buffer.add_string t.buf (string_of_int (String.length s));
  Buffer.add_char t.buf ':';
  Buffer.add_string t.buf s

let str t s = raw t s
let int t n = raw t (string_of_int n)
let num t v = raw t (Printf.sprintf "%.17g" v)
let field t k v = raw t (k ^ "=" ^ v)

let list t f xs =
  int t (List.length xs);
  List.iter (f t) xs

let digest t = Digest.to_hex (Digest.string (Buffer.contents t.buf))

let strings kind xs =
  let t = create kind in
  List.iter (str t) xs;
  digest t
