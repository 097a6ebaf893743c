(** Sparse matrices in compressed-sparse-row form, and the SpMV task of
    Sec. V-A. There is one type and one constructor ({!of_triplets}); a
    column-major view is the CSR of the {!transpose}. The R1CS matrices A,
    B, C are "limited-bandwidth" — most nonzeros sit near the diagonal —
    which is what lets NoCap stream them with good vector reuse;
    {!bandwidth_profile} measures that property so the performance model
    can exploit it. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Matrix indices: native ints off the OCaml heap. *)

type t = private {
  nrows : int;
  ncols : int;
  row_ptr : ints; (* length nrows + 1 *)
  col_idx : ints; (* ascending within each row *)
  values : Nocap_vec.Fv.t; (* unboxed: 8 bytes a nonzero, nothing the GC scans *)
}
(** The one sparse type. A matrix is [(nrows + 1 + 2 * nnz) * 8] resident
    bytes (plus 16 for each triplet {!of_triplets} merged away), none of
    it scanned by the GC. *)

val of_triplets : nrows:int -> ncols:int -> ints -> ints -> Nocap_vec.Fv.t -> t
(** [of_triplets ~nrows ~ncols rows cols values] is the matrix whose entry
    [(rows.{i}, cols.{i})] is [values.(i)], in any order: entries at one
    position are summed, then sums that are zero are dropped. The layout is
    canonical — row-major, columns ascending within each row — so equal
    matrices have equal fields. Two stable counting sorts (by column, then
    by row) and one merge pass: O(nnz + nrows + ncols). The inputs are only
    read.
    @raise Invalid_argument if the three lengths differ or an entry is
    out of bounds. *)

val nnz : t -> int

val transpose : t -> t
(** [m^T], through {!of_triplets}. [transpose (transpose m) = m]. *)

val spmv_into : t -> x:Nocap_vec.Fv.t -> r_lo:int -> Nocap_vec.Fv.t -> unit
(** [spmv_into m ~x ~r_lo dst] writes rows [r_lo, r_lo + Fv.length dst)
    of [m * x] into [dst] — the prover's row-blocked SpMV, on flat
    vectors; [r_lo = 0] with a [nrows]-long [dst] is the whole product.
    @raise Invalid_argument if [x] is shorter than [ncols] or the row
    window is out of range. *)

val gather_acc :
  t -> hi:Nocap_vec.Fv.t -> lo:Nocap_vec.Fv.t -> r_lo:int -> Nocap_vec.Fv.t -> unit
(** [gather_acc m ~hi ~lo ~r_lo dst] adds rows [r_lo, r_lo + Fv.length dst)
    of [m y] into [dst], where [y] is the tensor product
    [y(c) = hi.(c lsr s) * lo.(c land (2^s - 1))] and [2^s = Fv.length lo]
    (a power of two; [lo = \[1\]] makes [y = hi]). Two multiplications per
    in-window nonzero, and each row is summed in a register and stored
    once. On a {!transpose}, rows are the original's columns: this is the
    prover's M~ gather, Spartan's transpose product against a point's eq
    table (with [hi]/[lo] the eq tables of the point's top and bottom
    variables), never materializing that table.
    @raise Invalid_argument if [lo] is not a power of two long, if
    [hi x lo] covers fewer than [ncols] entries, or if the window is out
    of range. *)

val entries : t -> (int * int * Zk_field.Gf.t) Seq.t
(** All nonzero entries in row-major order. *)

val mle_eval_split :
  t ->
  row_hi:Nocap_vec.Fv.t ->
  row_lo:Nocap_vec.Fv.t ->
  col_hi:Nocap_vec.Fv.t ->
  col_lo:Nocap_vec.Fv.t ->
  Zk_field.Gf.t
(** [mle_eval_split m ~row_hi ~row_lo ~col_hi ~col_lo] is
    [sum_{(i,j,v)} v * row(i) * col(j)], where
    [row(i) = row_hi.(i lsr s) * row_lo.(i land (2^s - 1))] with
    [2^s = Fv.length row_lo], and [col] likewise — the matrix MLE at a
    point, given the point's tensor-split eq tables ({!Zk_poly.Mle.eq_split}):
    4 sqrt(n) table entries instead of 2n. One walk of the CSR arrays, two
    multiplications per nonzero, one per non-empty row and one per
    [row_hi] entry; empty rows cost a comparison. Scaling [col_hi] by a
    constant scales the result, which is how the Spartan verifier folds
    its random combination of A, B and C into the walks. Runs the native
    kernel ({!Nocap_native.Native.csr_eval}).
    @raise Invalid_argument if a [lo] table is not a positive power of two
    long or [hi x lo] covers fewer than the matrix's rows or columns. *)

val bandwidth_profile : t -> int * float
(** [(max_band, mean_band)] where band is [abs (col - row)] over nonzeros. *)

val pad_to : t -> nrows:int -> ncols:int -> t
(** Embed into a larger zero matrix (dimensions must not shrink). *)
