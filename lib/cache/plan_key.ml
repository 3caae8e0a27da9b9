(* Cache keys for factorization plans.

   A plan is reusable bit-for-bit only against the exact pattern AND
   the exact representative values it was analyzed on (threshold
   pivoting reads the values), so the key digests both: the CSR
   structure as integers and the values as raw IEEE-754 bits, one
   little-endian word each.  The row count fixes how many words of
   structure follow, so two lookups collide only when a fresh
   Csplu.plan call would have produced the identical plan anyway —
   which is what makes the plan cache invisible in the results
   (docs/serving.md). *)

let digest (pat : Csr.t) (vals : Cvec.t) =
  let nnz = Cvec.dim vals in
  let b = Buffer.create (8 * (Csr.rows pat + (3 * nnz) + 2)) in
  let add_int n = Buffer.add_int64_le b (Int64.of_int n) in
  add_int (Csr.rows pat);
  Array.iter add_int pat.Csr.rp;
  Array.iter add_int pat.Csr.ci;
  for p = 0 to nnz - 1 do
    Buffer.add_int64_le b (Int64.bits_of_float vals.re.(p));
    Buffer.add_int64_le b (Int64.bits_of_float vals.im.(p))
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))
