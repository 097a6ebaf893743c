module Gf = Zk_field.Gf
module Fv = Nocap_vec.Fv

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  nrows : int;
  ncols : int;
  row_ptr : ints;
  col_idx : ints;
  values : Fv.t;
}

(* Unchecked index access at the concrete [ints] type: every loop below
   compiles to a plain load or store, never the generic [caml_ba_get_1]. *)
let[@inline] get (a : ints) i = Bigarray.Array1.unsafe_get a i
let[@inline] set (a : ints) i x = Bigarray.Array1.unsafe_set a i x
let ints n : ints = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

(* One stable counting-sort pass: [dst] receives the entries of [src]
   ordered by [key.{e}] in [0, nkeys), ties in [src] order. Returns the
   offsets: key [k]'s entries land in slots [ptr.{k}, ptr.{k + 1}). *)
let sort_pass ~nkeys (key : ints) ~(src : ints) ~(dst : ints) =
  let n = Bigarray.Array1.dim src in
  let ptr = ints (nkeys + 1) in
  Bigarray.Array1.fill ptr 0;
  for i = 0 to n - 1 do
    let k = get key (get src i) + 1 in
    set ptr k (get ptr k + 1)
  done;
  for k = 1 to nkeys do
    set ptr k (get ptr k + get ptr (k - 1))
  done;
  (* ptr.{k} is key k's cursor here, which ends at ptr.{k + 1}: shift back. *)
  for i = 0 to n - 1 do
    let e = get src i in
    let k = get key e in
    let slot = get ptr k in
    set ptr k (slot + 1);
    set dst slot e
  done;
  for k = nkeys downto 1 do
    set ptr k (get ptr (k - 1))
  done;
  set ptr 0 0;
  ptr

let of_triplets ~nrows ~ncols (rows : ints) (cols : ints) values =
  let nz = Bigarray.Array1.dim rows in
  if Bigarray.Array1.dim cols <> nz || Fv.length values <> nz then
    invalid_arg "Sparse.of_triplets: rows, cols and values differ in length";
  for i = 0 to nz - 1 do
    let r = get rows i and c = get cols i in
    if r < 0 || r >= nrows || c < 0 || c >= ncols then
      invalid_arg "Sparse.of_triplets: entry out of bounds"
  done;
  (* By column, then by row: row-major order, columns ascending within a
     row, and equal positions adjacent. *)
  let by_col = ints nz and order = ints nz in
  for i = 0 to nz - 1 do
    set order i i
  done;
  ignore (sort_pass ~nkeys:ncols cols ~src:order ~dst:by_col);
  let row_ptr = sort_pass ~nkeys:nrows rows ~src:by_col ~dst:order in
  (* Sum each run of one position, then keep the sum if it is nonzero.
     Rows only shrink, so [row_ptr] is rewritten in place, and [by_col]
     (read for the last time above) takes the kept columns. *)
  let col_idx = by_col and vals = Fv.create nz in
  let kept = ref 0 and k = ref 0 in
  for r = 0 to nrows - 1 do
    let stop = get row_ptr (r + 1) in
    while !k < stop do
      let c = get cols (get order !k) in
      let acc = ref (Fv.unsafe_get values (get order !k)) in
      incr k;
      while !k < stop && get cols (get order !k) = c do
        acc := Gf.add !acc (Fv.unsafe_get values (get order !k));
        incr k
      done;
      if not (Gf.equal !acc Gf.zero) then begin
        set col_idx !kept c;
        Fv.unsafe_set vals !kept !acc;
        incr kept
      end
    done;
    set row_ptr (r + 1) !kept
  done;
  let n = !kept in
  { nrows; ncols; row_ptr; col_idx = Bigarray.Array1.sub col_idx 0 n;
    values = Fv.sub_view vals ~pos:0 ~len:n }

let nnz m = Fv.length m.values

let transpose m =
  let rows = ints (nnz m) in
  for r = 0 to m.nrows - 1 do
    for k = get m.row_ptr r to get m.row_ptr (r + 1) - 1 do
      set rows k r
    done
  done;
  of_triplets ~nrows:m.ncols ~ncols:m.nrows m.col_idx rows m.values

(* Blocked products for the prover, on flat vectors: only a row window of
   the result is produced (the streaming prover's blocks), and nothing is
   boxed. Field arithmetic is exact, so windowed results are bit-identical
   to the corresponding slice of the whole-vector products. *)

let spmv_into m ~x ~r_lo dst =
  let len = Fv.length dst in
  if Fv.length x < m.ncols then invalid_arg "Sparse.spmv_into: dimension mismatch";
  if r_lo < 0 || r_lo + len > m.nrows then
    invalid_arg "Sparse.spmv_into: row window out of range";
  let row_ptr = m.row_ptr and col_idx = m.col_idx and values = m.values in
  for i = 0 to len - 1 do
    let acc = ref Gf.zero in
    for k = get row_ptr (r_lo + i) to get row_ptr (r_lo + i + 1) - 1 do
      acc := Gf.add !acc (Gf.mul (Fv.unsafe_get values k) (Fv.unsafe_get x (get col_idx k)))
    done;
    Fv.unsafe_set dst i !acc
  done

let gather_acc m ~hi ~lo ~r_lo dst =
  let len = Fv.length dst and lo_len = Fv.length lo in
  if lo_len <= 0 || lo_len land (lo_len - 1) <> 0 then
    invalid_arg "Sparse.gather_acc: lo length must be a positive power of two";
  if Fv.length hi * lo_len < m.ncols then
    invalid_arg "Sparse.gather_acc: hi x lo shorter than the columns";
  if r_lo < 0 || r_lo + len > m.nrows then
    invalid_arg "Sparse.gather_acc: row window out of range";
  let s = Zk_util.Pow2.log2_floor lo_len and mask = lo_len - 1 in
  let row_ptr = m.row_ptr and col_idx = m.col_idx and values = m.values in
  for i = 0 to len - 1 do
    let acc = ref (Fv.unsafe_get dst i) in
    for k = get row_ptr (r_lo + i) to get row_ptr (r_lo + i + 1) - 1 do
      let c = get col_idx k in
      let y = Gf.mul (Fv.unsafe_get hi (c lsr s)) (Fv.unsafe_get lo (c land mask)) in
      acc := Gf.add !acc (Gf.mul (Fv.unsafe_get values k) y)
    done;
    Fv.unsafe_set dst i !acc
  done

let entries m =
  let n = nnz m in
  let rec row_of r k = if get m.row_ptr (r + 1) > k then r else row_of (r + 1) k in
  let rec seq r k () =
    if k >= n then Seq.Nil
    else begin
      let r = row_of r k in
      Seq.Cons ((r, get m.col_idx k, Fv.get m.values k), seq r (k + 1))
    end
  in
  seq 0 0

let mle_eval_split m ~row_hi ~row_lo ~col_hi ~col_lo =
  let pow2 v = Fv.length v > 0 && Fv.length v land (Fv.length v - 1) = 0 in
  if not (pow2 row_lo && pow2 col_lo) then
    invalid_arg "Sparse.mle_eval_split: lo tables must be positive powers of two long";
  if Fv.length row_hi * Fv.length row_lo < m.nrows
     || Fv.length col_hi * Fv.length col_lo < m.ncols
  then invalid_arg "Sparse.mle_eval_split: hi x lo shorter than the matrix";
  Nocap_native.Native.csr_eval m.row_ptr m.col_idx m.values row_hi row_lo col_hi col_lo

let bandwidth_profile m =
  let n = nnz m in
  if n = 0 then (0, 0.0)
  else begin
    let max_band = ref 0 and sum = ref 0 in
    for r = 0 to m.nrows - 1 do
      for k = get m.row_ptr r to get m.row_ptr (r + 1) - 1 do
        let band = abs (get m.col_idx k - r) in
        if band > !max_band then max_band := band;
        sum := !sum + band
      done
    done;
    (!max_band, float_of_int !sum /. float_of_int n)
  end

let pad_to m ~nrows ~ncols =
  if nrows < m.nrows || ncols < m.ncols then invalid_arg "Sparse.pad_to: shrinking";
  let row_ptr = ints (nrows + 1) in
  Bigarray.Array1.fill row_ptr (get m.row_ptr m.nrows);
  Bigarray.Array1.blit m.row_ptr (Bigarray.Array1.sub row_ptr 0 (m.nrows + 1));
  { nrows; ncols; row_ptr; col_idx = m.col_idx; values = m.values }
