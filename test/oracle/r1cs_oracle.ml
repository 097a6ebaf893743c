(* The instance digest recomputed from the matrices on every call: the
   reference for the digest [Zk_r1cs.R1cs.make] hashes once and stores. *)

module Gf = Zk_field.Gf
module Sparse = Zk_r1cs.Sparse
module R1cs = Zk_r1cs.R1cs

(* SHA3 of "r1cs:<log_size>:" and, per matrix, its tag then one
   (row, col, value) triple of little-endian int64s per nonzero in
   row-major order. *)
let instance_digest (inst : R1cs.instance) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "r1cs:%d:" inst.R1cs.log_size);
  List.iter
    (fun (tag, m) ->
      Buffer.add_char buf tag;
      Seq.iter
        (fun (r, c, v) ->
          Buffer.add_int64_le buf (Int64.of_int r);
          Buffer.add_int64_le buf (Int64.of_int c);
          Buffer.add_int64_le buf (Gf.to_int64 v))
        (Sparse.entries m))
    [ ('A', inst.R1cs.a); ('B', inst.R1cs.b); ('C', inst.R1cs.c) ];
  Zk_hash.Keccak.sha3_256 (Buffer.to_bytes buf)
