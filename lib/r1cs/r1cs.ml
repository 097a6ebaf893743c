module Gf = Zk_field.Gf

type instance = {
  a : Sparse.t;
  b : Sparse.t;
  c : Sparse.t;
  columns : Sparse.t array;
  digest : Zk_hash.Keccak.digest;
  log_size : int;
  num_constraints : int;
  num_witness : int;
  num_io : int;
}

type assignment = { w : Gf.t array; io : Gf.t array }

(* The hashed layout [make]'s documentation pins, written into one
   exact-size buffer straight from the CSR arrays (unchecked loads at the
   concrete [Sparse.ints] type). *)
let digest_of ~log_size mats =
  let header = Printf.sprintf "r1cs:%d:" log_size in
  let size =
    List.fold_left (fun acc (_, m) -> acc + 1 + (24 * Sparse.nnz m)) (String.length header) mats
  in
  let buf = Bytes.create size in
  Bytes.blit_string header 0 buf 0 (String.length header);
  let pos = ref (String.length header) in
  List.iter
    (fun (tag, (m : Sparse.t)) ->
      Bytes.set buf !pos tag;
      incr pos;
      let row_ptr = m.Sparse.row_ptr and col_idx = m.Sparse.col_idx in
      for r = 0 to m.Sparse.nrows - 1 do
        for k = Bigarray.Array1.unsafe_get row_ptr r
            to Bigarray.Array1.unsafe_get row_ptr (r + 1) - 1 do
          Bytes.set_int64_le buf !pos (Int64.of_int r);
          Bytes.set_int64_le buf (!pos + 8) (Int64.of_int (Bigarray.Array1.unsafe_get col_idx k));
          Bytes.set_int64_le buf (!pos + 16)
            (Gf.to_int64 (Nocap_vec.Fv.unsafe_get m.Sparse.values k));
          pos := !pos + 24
        done
      done)
    mats;
  Zk_hash.Keccak.sha3_256 buf

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
  let columns = Array.map Sparse.transpose [| a; b; c |] in
  (* Eager, not lazy: domains sharing an instance never race to force it. *)
  let digest = digest_of ~log_size [ ('A', a); ('B', b); ('C', c) ] in
  { a; b; c; columns; digest; log_size; num_constraints; num_witness; num_io }

let size inst = 1 lsl inst.log_size

(* [fn] names the entry point in the error, so a shape error says which
   call it came from. *)
let check_assignment ~fn inst asn =
  let half = size inst / 2 in
  if Array.length asn.w <> half || Array.length asn.io <> half then
    invalid_arg (fn ^ ": assignment halves must be 2^(log_size-1)");
  if not (Gf.equal asn.io.(0) Gf.one) then invalid_arg (fn ^ ": io.(0) must be 1")

let z_fv_checked ~fn inst asn =
  check_assignment ~fn inst asn;
  let half = size inst / 2 in
  let zfv = Nocap_vec.Fv.create (2 * half) in
  Nocap_vec.Fv.write_array asn.w ~src_pos:0 zfv ~dst_pos:0 ~len:half;
  Nocap_vec.Fv.write_array asn.io ~src_pos:0 zfv ~dst_pos:half ~len:half;
  zfv

(* The wire vector straight into a flat vector, for the prover's SpMV. *)
let z_fv inst asn = z_fv_checked ~fn:"R1cs.z_fv" inst asn

let satisfied inst asn =
  let zv = z_fv_checked ~fn:"R1cs.satisfied" inst asn in
  let n = size inst in
  let mul m =
    let dst = Nocap_vec.Fv.create n in
    Sparse.spmv_into m ~x:zv ~r_lo:0 dst;
    dst
  in
  let az = mul inst.a and bz = mul inst.b and cz = mul inst.c in
  let ok = ref true in
  for i = 0 to n - 1 do
    let get v = Nocap_vec.Fv.get v i in
    if not (Gf.equal (Gf.mul (get az) (get bz)) (get cz)) then ok := false
  done;
  !ok

let public_io inst asn = Array.sub asn.io 0 inst.num_io

let nnz inst = Sparse.nnz inst.a + Sparse.nnz inst.b + Sparse.nnz inst.c
