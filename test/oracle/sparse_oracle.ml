(* The references for [Zk_r1cs.Sparse]: the list sort-merge its
   counting-sort constructor [of_triplets] replaced, and whole-vector
   sparse products over full-length tables that the prover's row-window
   gather [Zk_r1cs.Sparse.gather_acc], Spartan's M~ fill and the
   verifier's tensor-split walk [Zk_r1cs.Sparse.mle_eval_split] are
   checked against. The products read the matrix through
   [Sparse.entries], not its CSR arrays. *)

module Gf = Zk_field.Gf
module Fv = Nocap_vec.Fv
module Sparse = Zk_r1cs.Sparse

(* A CSR matrix in plain arrays: what [of_entries] builds, and what
   [csr_of] reads out of a library matrix, field for field. *)
type csr = {
  nrows : int;
  ncols : int;
  row_ptr : int array;
  col_idx : int array;
  values : Gf.t array;
}

(* Sort row-major, sum the entries of each position, then drop the sums
   that are zero. *)
let of_entries ~nrows ~ncols entries =
  List.iter
    (fun (r, c, _) ->
      if r < 0 || r >= nrows || c < 0 || c >= ncols then
        invalid_arg "Sparse_oracle.of_entries: entry out of bounds")
    entries;
  let sorted =
    List.stable_sort
      (fun (r1, c1, _) (r2, c2, _) -> if r1 <> r2 then Int.compare r1 r2 else Int.compare c1 c2)
      entries
  in
  let merged =
    List.fold_left
      (fun acc (r, c, v) ->
        match acc with
        | (r', c', v') :: rest when r = r' && c = c' -> (r, c, Gf.add v' v) :: rest
        | _ -> (r, c, v) :: acc)
      [] sorted
    |> List.filter (fun (_, _, v) -> not (Gf.equal v Gf.zero))
    |> List.rev
  in
  let row_ptr = Array.make (nrows + 1) 0 in
  List.iter (fun (r, _, _) -> row_ptr.(r + 1) <- row_ptr.(r + 1) + 1) merged;
  for r = 1 to nrows do
    row_ptr.(r) <- row_ptr.(r) + row_ptr.(r - 1)
  done;
  {
    nrows;
    ncols;
    row_ptr;
    col_idx = Array.of_list (List.map (fun (_, c, _) -> c) merged);
    values = Array.of_list (List.map (fun (_, _, v) -> v) merged);
  }

let ints a = Bigarray.Array1.of_array Bigarray.int Bigarray.c_layout a

(* A library matrix from a triplet list, through [Sparse.of_triplets]. *)
let of_list ~nrows ~ncols entries =
  let e = Array.of_list entries in
  Sparse.of_triplets ~nrows ~ncols
    (ints (Array.map (fun (r, _, _) -> r) e))
    (ints (Array.map (fun (_, c, _) -> c) e))
    (Fv.of_array (Array.map (fun (_, _, v) -> v) e))

let csr_of (m : Sparse.t) =
  let to_array (a : Sparse.ints) = Array.init (Bigarray.Array1.dim a) (Bigarray.Array1.get a) in
  {
    nrows = m.Sparse.nrows;
    ncols = m.Sparse.ncols;
    row_ptr = to_array m.Sparse.row_ptr;
    col_idx = to_array m.Sparse.col_idx;
    values = Fv.to_array m.Sparse.values;
  }

(* [spmv_transpose m y] is [m^T * y]. *)
let spmv_transpose (m : Sparse.t) y =
  if Array.length y <> m.Sparse.nrows then
    invalid_arg "Sparse_oracle.spmv_transpose: dimension mismatch";
  let out = Array.make m.Sparse.ncols Gf.zero in
  Seq.iter (fun (r, c, v) -> out.(c) <- Gf.add out.(c) (Gf.mul v y.(r))) (Sparse.entries m);
  out

(* [mle_eval m ~row_eq ~col_eq] = sum over nonzeros (i, j, v) of
   v * row_eq.(i) * col_eq.(j): the matrix MLE at a point, given the
   point's full eq tables. *)
let mle_eval (m : Sparse.t) ~row_eq ~col_eq =
  if Fv.length row_eq < m.Sparse.nrows || Fv.length col_eq < m.Sparse.ncols then
    invalid_arg "Sparse_oracle.mle_eval: eq tables too small";
  Seq.fold_left
    (fun acc (r, c, v) -> Gf.add acc (Gf.mul (Gf.mul v (Fv.get row_eq r)) (Fv.get col_eq c)))
    Gf.zero (Sparse.entries m)

(* [spmv m x] is [m * x]: the whole-vector reference for the prover's
   row-window [Zk_r1cs.Sparse.spmv_into]. *)
let spmv (m : Sparse.t) x =
  if Array.length x <> m.Sparse.ncols then invalid_arg "Sparse_oracle.spmv: dimension mismatch";
  let out = Array.make m.Sparse.nrows Gf.zero in
  Seq.iter (fun (r, c, v) -> out.(r) <- Gf.add out.(r) (Gf.mul v x.(c))) (Sparse.entries m);
  out
