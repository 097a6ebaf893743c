(** Multilinear extensions (MLEs).

    A table of [2^L] field elements is viewed as the evaluations of an
    [L]-variate multilinear polynomial on the Boolean hypercube (Sec. V-A:
    "the element in index i is the evaluation ... where the L variables
    correspond to the bit pattern of i").

    Variable-ordering convention used throughout this library: variable 1 is
    the {e most significant} bit of the index. The sumcheck prover binds
    variable 1 first, which matches the paper's sumcheck DP (Listing 1)
    where round [i] halves the array. *)

type point = Zk_field.Gf.t array
(** A point in F^L: challenges (r_1, ..., r_L), variable 1 first. *)

val eq_table : point -> Zk_field.Gf.t array
(** [eq_table r] tabulates [eq(r, b)] for all [2^L] Boolean [b]:
    the Lagrange-basis vector: the MLE of a table [a] at [r] is
    [sum_b a.(b) * (eq_table r).(b)]. *)

val eq_table_into : point -> lo:int -> Nocap_vec.Fv.t -> unit
(** [eq_table_into r ~lo dst] fills [dst] with entries [lo, lo + len) of
    {!eq_table}[ r], [len = Fv.length dst], without materializing the full
    table: [len] must be a positive power of two and [lo] a multiple of
    [len] (aligned blocks). [dst.(0)] is seeded with the product over the
    block's fixed high bits; then the low variables enter from the last to
    the first, each as the block's most significant bit so far, doubling
    the filled part on contiguous halves: [high <- low * r_i]
    ({!Nocap_vec.Fv.scale_into}), then [low <- low - high]
    ({!Nocap_vec.Fv.sub_into}). Goldilocks arithmetic is exact, so each
    entry is bit-identical to the full table's — the blocked and
    streaming provers depend on this. *)

val eq_fv : point -> Nocap_vec.Fv.t
(** {!eq_table} as a fresh flat vector (one {!eq_table_into} at [lo = 0]). *)

val eq_split : point -> Nocap_vec.Fv.t * Nocap_vec.Fv.t * int
(** [eq_split r] is [(hi, lo, s)]: [hi] the {!eq_fv} of r's top
    [floor(l/2)] variables, [lo] that of its bottom [s = ceil(l/2)], so
    [(eq_fv r).(i) = hi.(i lsr s) * lo.(i land (2^s - 1))] for every [i]
    (exactly: Goldilocks arithmetic is exact). Two [O(sqrt n)] tables stand
    for the full [n]-entry table; for [l = 1] the high half is empty and
    [hi = \[1\]]. The prover's M~ gather and the verifier's matrix
    evaluation both split this way. *)

val eq_table_spill : point -> budget:int option -> Nocap_vec.Spill.t -> unit
(** [eq_table_spill r ~budget s] fills [s] with {!eq_table}[ r], one aligned
    power-of-two block at a time (the {!Nocap_vec.Spill.block_rows} block
    of [budget] at 8 bytes a row, rounded down) through
    {!eq_table_into}, in one {!Nocap_vec.Spill.walk} (so a cancellation or
    an I/O fault frees [s] and re-raises).
    @raise Invalid_argument if [Spill.length s <> 2^(Array.length r)]. *)

val eq_point : point -> point -> Zk_field.Gf.t
(** [eq_point r s] = [prod_i (r_i * s_i + (1 - r_i) * (1 - s_i))]. *)
