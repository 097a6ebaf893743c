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
  values : Zk_field.Gf.t array;
}

val of_entries : nrows:int -> ncols:int -> (int * int * Zk_field.Gf.t) list -> t
(** Build from (row, col, value) triples. Duplicate (row, col) entries are
    summed; zero values are dropped. *)

val nnz : t -> int

val spmv : t -> Zk_field.Gf.t array -> Zk_field.Gf.t array
(** [spmv m x] is [m * x]. @raise Invalid_argument on dimension mismatch. *)

val spmv_into : t -> x:Nocap_vec.Fv.t -> r_lo:int -> Nocap_vec.Fv.t -> unit
(** [spmv_into m ~x ~r_lo dst] writes rows [r_lo, r_lo + Fv.length dst)
    of [m * x] into [dst] — the prover's row-blocked SpMV, on flat
    vectors. Bit-identical to the same slice of {!spmv}. *)

val spmv_transpose_acc :
  t -> y:Nocap_vec.Fv.t -> r_lo:int -> scale:Zk_field.Gf.t -> c_lo:int -> Nocap_vec.Fv.t -> unit
(** [spmv_transpose_acc m ~y ~r_lo ~scale ~c_lo dst] adds
    [scale * (m^T y)] restricted to rows [r_lo, r_lo + Fv.length y)
    ([y.(i)] is row [r_lo + i]) and columns [c_lo, c_lo + Fv.length dst)
    into [dst]: one multiplication per row for [scale * y_r], then one per
    in-window nonzero. Summing it over every row block, and over A, B, C
    with their scales, builds a window of Spartan's M~ table in place.
    Scans every row of the block per call, so a full column-blocked
    transpose costs [nblocks * nnz]; the accumulator stays window-sized. *)

val entries : t -> (int * int * Zk_field.Gf.t) Seq.t
(** All nonzero entries in row-major order. *)

val mle_eval : t -> row_eq:Nocap_vec.Fv.t -> col_eq:Nocap_vec.Fv.t -> Zk_field.Gf.t
(** [mle_eval m ~row_eq ~col_eq] = [sum_{(i,j,v)} v * row_eq.(i) * col_eq.(j)]
    — the matrix MLE evaluated at a point, given precomputed eq tables
    ({!Zk_poly.Mle.eq_fv}), with [row_eq.(i)] factored out of each row.
    This is how the Spartan verifier evaluates A(rx, ry), B(rx, ry),
    C(rx, ry) in O(nnz). *)

val bandwidth_profile : t -> int * float
(** [(max_band, mean_band)] where band is [abs (col - row)] over nonzeros. *)

val pad_to : t -> nrows:int -> ncols:int -> t
(** Embed into a larger zero matrix (dimensions must not shrink). *)
