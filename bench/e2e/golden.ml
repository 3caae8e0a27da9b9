(* The correctness oracle: committed golden outputs under
   bench/e2e/golden/ and the masks that make two honest runs compare
   equal.  Report.pp prints the analysis runtime beside a sigma
   ("(0.092s)"), so no two cold runs are byte-identical; that field is
   masked before comparing. *)

let path root name = Filename.concat root ("bench/e2e/golden/" ^ name)
let load root name = Doc.read_file (path root name)

let is_digit c = c >= '0' && c <= '9'

(* "(0.092s)" -> "(T)" *)
let mask_runtime s =
  let n = String.length s in
  let b = Buffer.create n in
  let digits i =
    let j = ref i in
    while !j < n && is_digit s.[!j] do incr j done;
    !j
  in
  let rec go i =
    if i < n then
      if s.[i] = '(' then begin
        let j = digits (i + 1) in
        let k = if j > i + 1 && j < n && s.[j] = '.' then digits (j + 1) else j in
        if k > j + 1 && k + 1 < n && s.[k] = 's' && s.[k + 1] = ')' then begin
          Buffer.add_string b "(T)";
          go (k + 2)
        end
        else begin
          Buffer.add_char b '(';
          go (i + 1)
        end
      end
      else begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

let first_diff a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i = function
    | x :: xs, y :: ys -> if x = y then go (i + 1) (xs, ys) else (i, x, y)
    | x :: _, [] -> (i, x, "<end>")
    | [], y :: _ -> (i, "<end>", y)
    | [], [] -> (i, "", "")
  in
  let i, x, y = go 1 (la, lb) in
  Printf.sprintf "line %d: expected %S, got %S" i x y

(* runtime-masked equality with a golden text *)
let matches ~golden output =
  let got = mask_runtime output in
  if got = golden then Ok () else Error (first_diff golden got)

(* The sigma a mismatch card prints, and the text with it masked. *)
let split_sigma s =
  let key = "sigma = " in
  match Doc.find_sub s key with
  | None -> None
  | Some i ->
    let a = i + String.length key in
    let e = ref a in
    while
      !e < String.length s && s.[!e] <> ' ' && s.[!e] <> ',' && s.[!e] <> '\n'
    do
      incr e
    done;
    Option.map
      (fun v ->
        (String.sub s 0 a ^ "S" ^ String.sub s !e (String.length s - !e), v))
      (float_of_string_opt (String.sub s a (!e - a)))

(* σ of a linear mismatch analysis is proportional to the common
   relative tolerance of every source: the output at [tol] must equal
   the golden one (taken at [golden_tol]) with σ scaled by the ratio,
   to the 6 significant digits it is printed with. *)
let matches_scaled ~golden ~golden_tol ~tol output =
  match split_sigma golden, split_sigma (mask_runtime output) with
  | Some (g, gs), Some (o, os) ->
    let want = gs *. tol /. golden_tol in
    if g <> o then Error (first_diff g o)
    else if Float.abs (os -. want) > 2e-5 *. Float.abs want then
      Error (Printf.sprintf "sigma %g at tol %g, expected %g" os tol want)
    else Ok ()
  | None, _ -> Error "golden output has no sigma"
  | _, None -> Error "output has no sigma"
