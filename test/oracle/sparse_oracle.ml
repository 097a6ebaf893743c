(* Whole-vector transpose SpMV over boxed arrays: the reference the
   prover's column-window gather [Zk_r1cs.Sparse.Csc.gather_acc] and
   Spartan's M~ fill are checked against. *)

module Gf = Zk_field.Gf
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
