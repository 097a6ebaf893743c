(* Whole-vector sparse products over full-length tables: the references
   the prover's column-window gather [Zk_r1cs.Sparse.Csc.gather_acc],
   Spartan's M~ fill and the verifier's tensor-split walk
   [Zk_r1cs.Sparse.mle_eval_split] are checked against. *)

module Gf = Zk_field.Gf
module Fv = Nocap_vec.Fv
module Sparse = Zk_r1cs.Sparse

(* [spmv_transpose m y] is [m^T * y]. *)
let spmv_transpose (m : Sparse.t) y =
  if Array.length y <> m.Sparse.nrows then
    invalid_arg "Sparse_oracle.spmv_transpose: dimension mismatch";
  let out = Array.make m.Sparse.ncols Gf.zero in
  for r = 0 to m.Sparse.nrows - 1 do
    let yr = y.(r) in
    if not (Gf.equal yr Gf.zero) then
      for k = m.Sparse.row_ptr.(r) to m.Sparse.row_ptr.(r + 1) - 1 do
        let c = m.Sparse.col_idx.(k) in
        out.(c) <- Gf.add out.(c) (Gf.mul (Nocap_vec.Fv.get m.Sparse.values k) yr)
      done
  done;
  out

(* [mle_eval m ~row_eq ~col_eq] = sum over nonzeros (i, j, v) of
   v * row_eq.(i) * col_eq.(j): the matrix MLE at a point, given the
   point's full eq tables, with row_eq.(i) factored out of each row. *)
let mle_eval (m : Sparse.t) ~row_eq ~col_eq =
  if Fv.length row_eq < m.Sparse.nrows || Fv.length col_eq < m.Sparse.ncols then
    invalid_arg "Sparse_oracle.mle_eval: eq tables too small";
  let acc = ref Gf.zero in
  for r = 0 to m.Sparse.nrows - 1 do
    let row = ref Gf.zero in
    for k = m.Sparse.row_ptr.(r) to m.Sparse.row_ptr.(r + 1) - 1 do
      row :=
        Gf.add !row (Gf.mul (Fv.get m.Sparse.values k) (Fv.get col_eq m.Sparse.col_idx.(k)))
    done;
    acc := Gf.add !acc (Gf.mul (Fv.get row_eq r) !row)
  done;
  !acc

(* [spmv m x] is [m * x]: the whole-vector reference for the prover's
   row-window [Zk_r1cs.Sparse.spmv_into]. *)
let spmv (m : Sparse.t) x =
  if Array.length x <> m.Sparse.ncols then invalid_arg "Sparse_oracle.spmv: dimension mismatch";
  Array.init m.Sparse.nrows (fun r ->
      let acc = ref Gf.zero in
      for k = m.Sparse.row_ptr.(r) to m.Sparse.row_ptr.(r + 1) - 1 do
        acc := Gf.add !acc (Gf.mul (Fv.get m.Sparse.values k) x.(m.Sparse.col_idx.(k)))
      done;
      !acc)
