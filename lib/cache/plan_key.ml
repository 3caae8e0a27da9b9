(* Cache keys for factorization plans.

   A plan is reusable bit-for-bit only against the exact pattern AND
   the exact representative values it was analyzed on (threshold
   pivoting reads the values), so the key digests both: the CSR
   structure as integers and the values as raw IEEE-754 bits.  Two
   lookups collide only when a fresh Splu/Csplu.plan call would have
   produced the identical plan anyway — which is what makes the plan
   cache invisible in the results (docs/serving.md). *)

let add_int64 b x =
  for k = 7 downto 0 do
    Buffer.add_char b
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right x (k * 8)) 0xFFL)))
  done

let add_int b n = add_int64 b (Int64.of_int n)
let add_float b v = add_int64 b (Int64.bits_of_float v)

let add_pattern b (pat : Csr.t) =
  add_int b (Csr.rows pat);
  Array.iter (add_int b) pat.Csr.rp;
  Array.iter (add_int b) pat.Csr.ci

let reals ~tag (pat : Csr.t) (vals : float array) =
  let b = Buffer.create 1024 in
  Buffer.add_string b tag;
  add_pattern b pat;
  Array.iter (add_float b) vals;
  Digest.to_hex (Digest.string (Buffer.contents b))

let complexes ~tag (pat : Csr.t) (vals : Cvec.t) =
  let b = Buffer.create 1024 in
  Buffer.add_string b tag;
  add_pattern b pat;
  for p = 0 to Cvec.dim vals - 1 do
    add_float b vals.re.(p);
    add_float b vals.im.(p)
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))
