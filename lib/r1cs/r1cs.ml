module Gf = Zk_field.Gf

type instance = {
  a : Sparse.t;
  b : Sparse.t;
  c : Sparse.t;
  columns : Sparse.Csc.t array;
  log_size : int;
  num_constraints : int;
  num_witness : int;
  num_io : int;
}

type assignment = { w : Gf.t array; io : Gf.t array }

let make ~a ~b ~c ~log_size ~num_constraints ~num_witness ~num_io =
  if log_size < 1 then invalid_arg "R1cs.make: log_size must be >= 1";
  let n = 1 lsl log_size in
  let check (m : Sparse.t) name =
    if m.Sparse.nrows <> n || m.Sparse.ncols <> n then
      invalid_arg (Printf.sprintf "R1cs.make: %s must be %dx%d" name n n)
  in
  check a "A";
  check b "B";
  check c "C";
  let half = n / 2 in
  if num_constraints > n || num_witness > half || num_io > half || num_io < 1 then
    invalid_arg "R1cs.make: counts out of range";
  let columns = Array.map Sparse.Csc.of_csr [| a; b; c |] in
  { a; b; c; columns; log_size; num_constraints; num_witness; num_io }

let size inst = 1 lsl inst.log_size

let check_assignment inst asn =
  let half = size inst / 2 in
  if Array.length asn.w <> half || Array.length asn.io <> half then
    invalid_arg "R1cs.z: assignment halves must be 2^(log_size-1)";
  if not (Gf.equal asn.io.(0) Gf.one) then invalid_arg "R1cs.z: io.(0) must be 1"

let z inst asn =
  check_assignment inst asn;
  Array.append asn.w asn.io

(* The wire vector straight into a flat vector, for the prover's SpMV:
   the same validation as [z], no boxed intermediate. *)
let z_fv inst asn =
  check_assignment inst asn;
  let half = size inst / 2 in
  let zfv = Nocap_vec.Fv.create (2 * half) in
  Nocap_vec.Fv.write_array asn.w ~src_pos:0 zfv ~dst_pos:0 ~len:half;
  Nocap_vec.Fv.write_array asn.io ~src_pos:0 zfv ~dst_pos:half ~len:half;
  zfv

let satisfied inst asn =
  let zv = z inst asn in
  let az = Sparse.spmv inst.a zv
  and bz = Sparse.spmv inst.b zv
  and cz = Sparse.spmv inst.c zv in
  let ok = ref true in
  for i = 0 to size inst - 1 do
    if not (Gf.equal (Gf.mul az.(i) bz.(i)) cz.(i)) then ok := false
  done;
  !ok

let public_io inst asn = Array.sub asn.io 0 inst.num_io

let nnz inst = Sparse.nnz inst.a + Sparse.nnz inst.b + Sparse.nnz inst.c
