(** Cache keys for sparse factorization plans.

    A {!Splu.plan} / {!Csplu.plan} records a pivot sequence chosen from
    its representative values, so reusing one is bit-identical to
    re-planning {e only} when both the pattern and those values match
    exactly.  These keys digest the CSR structure plus the raw IEEE-754
    bits of the values: a hit therefore returns exactly the plan a
    fresh analysis would have computed, which is what keeps the plan
    cache observable only as speed (docs/serving.md). *)

val reals : tag:string -> Csr.t -> float array -> string
(** Key for a real-valued plan ({!Splu}).  [tag] namespaces the
    consumer (e.g. ["splu"]). *)

val complexes : tag:string -> Csr.t -> Cvec.t -> string
(** Key for a complex-valued plan ({!Csplu}). *)
