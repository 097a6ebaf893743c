module Gf = Zk_field.Gf
module Fv = Nocap_vec.Fv

type t = {
  nrows : int;
  ncols : int;
  row_ptr : int array;
  col_idx : int array;
  values : Fv.t;
}

let of_entries ~nrows ~ncols entries =
  List.iter
    (fun (r, c, _) ->
      if r < 0 || r >= nrows || c < 0 || c >= ncols then
        invalid_arg "Sparse.of_entries: entry out of bounds")
    entries;
  (* Sort row-major, then merge duplicates and drop zeros. *)
  let sorted =
    List.sort
      (fun (r1, c1, _) (r2, c2, _) -> if r1 <> r2 then Int.compare r1 r2 else Int.compare c1 c2)
      entries
  in
  let merged =
    List.fold_left
      (fun acc (r, c, v) ->
        match acc with
        | (r', c', v') :: rest when r = r' && c = c' -> (r, c, Gf.add v v') :: rest
        | _ -> (r, c, v) :: acc)
      [] sorted
    |> List.filter (fun (_, _, v) -> not (Gf.equal v Gf.zero))
    |> List.rev
  in
  let n = List.length merged in
  let row_ptr = Array.make (nrows + 1) 0 in
  let col_idx = Array.make n 0 in
  let values = Fv.create n in
  List.iteri
    (fun k (r, c, v) ->
      row_ptr.(r + 1) <- row_ptr.(r + 1) + 1;
      col_idx.(k) <- c;
      Fv.unsafe_set values k v)
    merged;
  for r = 1 to nrows do
    row_ptr.(r) <- row_ptr.(r) + row_ptr.(r - 1)
  done;
  { nrows; ncols; row_ptr; col_idx; values }

let nnz m = Fv.length m.values

(* Blocked products for the prover, on flat vectors: only a row/column
   window of the result is produced (the streaming prover's blocks), and
   nothing is boxed. Field arithmetic is exact, so windowed results are
   bit-identical to the corresponding slice of the whole-vector products. *)

let spmv_into m ~x ~r_lo dst =
  let len = Fv.length dst in
  if Fv.length x < m.ncols then invalid_arg "Sparse.spmv_into: dimension mismatch";
  if r_lo < 0 || r_lo + len > m.nrows then
    invalid_arg "Sparse.spmv_into: row window out of range";
  for i = 0 to len - 1 do
    let r = r_lo + i in
    let acc = ref Gf.zero in
    for k = m.row_ptr.(r) to m.row_ptr.(r + 1) - 1 do
      acc := Gf.add !acc (Gf.mul (Fv.unsafe_get m.values k) (Fv.unsafe_get x m.col_idx.(k)))
    done;
    Fv.unsafe_set dst i !acc
  done

let rec log2 x = if x = 1 then 0 else 1 + log2 (x lsr 1)

(* Column-major copy for the prover's M~ gather, off the OCaml heap: int
   column pointers and row indices, [Fv] values. Built by a counting sort
   over the CSR, so row indices ascend within each column. *)
module Csc = struct
  type csr = t
  type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  type t = {
    nrows : int;
    ncols : int;
    col_ptr : ints;
    row_idx : ints;
    values : Fv.t;
  }

  let ints n = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

  let of_csr (m : csr) =
    let nz = Fv.length m.values in
    let col_ptr = ints (m.ncols + 1) in
    Bigarray.Array1.fill col_ptr 0;
    Array.iter (fun c -> col_ptr.{c + 1} <- col_ptr.{c + 1} + 1) m.col_idx;
    for c = 1 to m.ncols do
      col_ptr.{c} <- col_ptr.{c} + col_ptr.{c - 1}
    done;
    (* next.{c} is the next free slot of column c. *)
    let next = ints m.ncols in
    Bigarray.Array1.blit (Bigarray.Array1.sub col_ptr 0 m.ncols) next;
    let row_idx = ints nz and values = Fv.create nz in
    for r = 0 to m.nrows - 1 do
      for k = m.row_ptr.(r) to m.row_ptr.(r + 1) - 1 do
        let c = m.col_idx.(k) in
        let slot = next.{c} in
        next.{c} <- slot + 1;
        row_idx.{slot} <- r;
        Fv.unsafe_set values slot (Fv.unsafe_get m.values k)
      done
    done;
    { nrows = m.nrows; ncols = m.ncols; col_ptr; row_idx; values }

  let gather_acc m ~hi ~lo ~c_lo dst =
    let len = Fv.length dst and lo_len = Fv.length lo in
    if lo_len <= 0 || lo_len land (lo_len - 1) <> 0 then
      invalid_arg "Sparse.Csc.gather_acc: lo length must be a positive power of two";
    if Fv.length hi * lo_len < m.nrows then
      invalid_arg "Sparse.Csc.gather_acc: hi x lo shorter than the rows";
    if c_lo < 0 || c_lo + len > m.ncols then
      invalid_arg "Sparse.Csc.gather_acc: column window out of range";
    let s = log2 lo_len and mask = lo_len - 1 in
    let col_ptr = m.col_ptr and row_idx = m.row_idx and values = m.values in
    for j = 0 to len - 1 do
      let acc = ref (Fv.unsafe_get dst j) in
      for k = Bigarray.Array1.unsafe_get col_ptr (c_lo + j)
          to Bigarray.Array1.unsafe_get col_ptr (c_lo + j + 1) - 1 do
        let r = Bigarray.Array1.unsafe_get row_idx k in
        let y = Gf.mul (Fv.unsafe_get hi (r lsr s)) (Fv.unsafe_get lo (r land mask)) in
        acc := Gf.add !acc (Gf.mul (Fv.unsafe_get values k) y)
      done;
      Fv.unsafe_set dst j !acc
    done
end

let entries m =
  let n = nnz m in
  let rec row_of r k = if m.row_ptr.(r + 1) > k then r else row_of (r + 1) k in
  let rec seq r k () =
    if k >= n then Seq.Nil
    else begin
      let r = row_of r k in
      Seq.Cons ((r, m.col_idx.(k), Fv.get m.values k), seq r (k + 1))
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
      for k = m.row_ptr.(r) to m.row_ptr.(r + 1) - 1 do
        let band = abs (m.col_idx.(k) - r) in
        if band > !max_band then max_band := band;
        sum := !sum + band
      done
    done;
    (!max_band, float_of_int !sum /. float_of_int n)
  end

let pad_to m ~nrows ~ncols =
  if nrows < m.nrows || ncols < m.ncols then invalid_arg "Sparse.pad_to: shrinking";
  let row_ptr = Array.make (nrows + 1) 0 in
  Array.blit m.row_ptr 0 row_ptr 0 (m.nrows + 1);
  for r = m.nrows + 1 to nrows do
    row_ptr.(r) <- row_ptr.(m.nrows)
  done;
  { nrows; ncols; row_ptr; col_idx = m.col_idx; values = m.values }
