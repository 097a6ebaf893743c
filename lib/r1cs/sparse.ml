module Gf = Zk_field.Gf
module Fv = Nocap_vec.Fv

type t = {
  nrows : int;
  ncols : int;
  row_ptr : int array;
  col_idx : int array;
  values : Gf.t array;
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
  let values = Array.make n Gf.zero in
  List.iteri
    (fun k (r, c, v) ->
      row_ptr.(r + 1) <- row_ptr.(r + 1) + 1;
      col_idx.(k) <- c;
      values.(k) <- v)
    merged;
  for r = 1 to nrows do
    row_ptr.(r) <- row_ptr.(r) + row_ptr.(r - 1)
  done;
  { nrows; ncols; row_ptr; col_idx; values }

let nnz m = Array.length m.values

let spmv m x =
  if Array.length x <> m.ncols then invalid_arg "Sparse.spmv: dimension mismatch";
  Array.init m.nrows (fun r ->
      let acc = ref Gf.zero in
      for k = m.row_ptr.(r) to m.row_ptr.(r + 1) - 1 do
        acc := Gf.add !acc (Gf.mul m.values.(k) x.(m.col_idx.(k)))
      done;
      !acc)

(* Blocked variants for the prover, on flat vectors: only a row/column
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
      acc := Gf.add !acc (Gf.mul m.values.(k) (Fv.unsafe_get x m.col_idx.(k)))
    done;
    Fv.unsafe_set dst i !acc
  done

let spmv_transpose_acc m ~y ~r_lo ~scale ~c_lo dst =
  let rows = Fv.length y and len = Fv.length dst in
  if r_lo < 0 || r_lo + rows > m.nrows then
    invalid_arg "Sparse.spmv_transpose_acc: row window out of range";
  if c_lo < 0 || c_lo + len > m.ncols then
    invalid_arg "Sparse.spmv_transpose_acc: column window out of range";
  let c_hi = c_lo + len in
  for i = 0 to rows - 1 do
    let yr = Fv.unsafe_get y i in
    if not (Gf.equal yr Gf.zero) then begin
      let s = Gf.mul scale yr in
      let r = r_lo + i in
      for k = m.row_ptr.(r) to m.row_ptr.(r + 1) - 1 do
        let c = m.col_idx.(k) in
        if c >= c_lo && c < c_hi then
          Fv.unsafe_set dst (c - c_lo)
            (Gf.add (Fv.unsafe_get dst (c - c_lo)) (Gf.mul s m.values.(k)))
      done
    end
  done

let entries m =
  let n = nnz m in
  let rec row_of r k = if m.row_ptr.(r + 1) > k then r else row_of (r + 1) k in
  let rec seq r k () =
    if k >= n then Seq.Nil
    else begin
      let r = row_of r k in
      Seq.Cons ((r, m.col_idx.(k), m.values.(k)), seq r (k + 1))
    end
  in
  seq 0 0

let mle_eval m ~row_eq ~col_eq =
  if Fv.length row_eq < m.nrows || Fv.length col_eq < m.ncols then
    invalid_arg "Sparse.mle_eval: eq tables too small";
  let acc = ref Gf.zero in
  for r = 0 to m.nrows - 1 do
    let row = ref Gf.zero in
    for k = m.row_ptr.(r) to m.row_ptr.(r + 1) - 1 do
      row := Gf.add !row (Gf.mul m.values.(k) (Fv.unsafe_get col_eq m.col_idx.(k)))
    done;
    acc := Gf.add !acc (Gf.mul (Fv.unsafe_get row_eq r) !row)
  done;
  !acc

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
