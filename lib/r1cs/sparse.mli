(** Sparse matrices in compressed-sparse-row form, and the SpMV task of
    Sec. V-A. The R1CS matrices A, B, C are "limited-bandwidth" — most
    nonzeros sit near the diagonal — which is what lets NoCap stream them with
    good vector reuse; {!bandwidth_profile} measures that property so the
    performance model can exploit it. *)

type t = private {
  nrows : int;
  ncols : int;
  row_ptr : int array; (* length nrows + 1 *)
  col_idx : int array;
  values : Nocap_vec.Fv.t; (* unboxed: 8 bytes a nonzero, nothing the GC scans *)
}

val of_entries : nrows:int -> ncols:int -> (int * int * Zk_field.Gf.t) list -> t
(** Build from (row, col, value) triples. Duplicate (row, col) entries are
    summed; zero values are dropped. *)

val nnz : t -> int

val spmv_into : t -> x:Nocap_vec.Fv.t -> r_lo:int -> Nocap_vec.Fv.t -> unit
(** [spmv_into m ~x ~r_lo dst] writes rows [r_lo, r_lo + Fv.length dst)
    of [m * x] into [dst] — the prover's row-blocked SpMV, on flat
    vectors; [r_lo = 0] with a [nrows]-long [dst] is the whole product.
    @raise Invalid_argument if [x] is shorter than [ncols] or the row
    window is out of range. *)

(** Column-major (CSC) copies, for the prover's second-sumcheck table:
    Spartan's M~ is a transpose product, so it is gathered one column at
    a time. Everything is off the OCaml heap — [Bigarray] int column
    pointers and row indices, [Fv] values — so a copy is
    [(ncols + 1 + 2 * nnz) * 8] resident bytes and nothing the GC scans. *)
module Csc : sig
  type csr := t
  type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  type t = private {
    nrows : int;
    ncols : int;
    col_ptr : ints; (* length ncols + 1 *)
    row_idx : ints; (* ascending within each column *)
    values : Nocap_vec.Fv.t;
  }

  val of_csr : csr -> t
  (** The transpose layout of a CSR matrix, in O(nnz + nrows + ncols). *)

  val gather_acc :
    t -> hi:Nocap_vec.Fv.t -> lo:Nocap_vec.Fv.t -> c_lo:int -> Nocap_vec.Fv.t -> unit
  (** [gather_acc m ~hi ~lo ~c_lo dst] adds columns
      [c_lo, c_lo + Fv.length dst) of [m^T y] into [dst], where [y] is the
      tensor product [y(r) = hi.(r lsr s) * lo.(r land (2^s - 1))] and
      [2^s = Fv.length lo] (a power of two; [lo = \[1\]] makes [y = hi]).
      Two multiplications per in-window nonzero, and each column is summed
      in a register and stored once. With [hi]/[lo] the eq tables of a
      point's top and bottom variables, [y] is that point's full eq
      table, never materialized.
      @raise Invalid_argument if [lo] is not a power of two long, if
      [hi x lo] covers fewer than [nrows] rows, or if the window is out
      of range. *)
end

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
