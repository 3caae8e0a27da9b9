(** Cache keys for sparse factorization plans.

    A {!Csplu.plan} records a pivot sequence chosen from its
    representative values, so reusing one is bit-identical to
    re-planning {e only} when both the pattern and those values match
    exactly.  The key digests the CSR structure plus the raw IEEE-754
    bits of the values: a hit therefore returns exactly the plan a
    fresh analysis would have computed, which is what keeps the plan
    cache observable only as speed (docs/serving.md).  Keys never leave
    the process. *)

val digest : Csr.t -> Cvec.t -> string
(** Key for a plan of the pattern on complex values aligned with its
    storage.  A real matrix is keyed as its values with a [+0]
    imaginary part, the values {!Splu.plan} plans on. *)
