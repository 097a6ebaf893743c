module Keccak = Zk_hash.Keccak
module Fv = Nocap_vec.Fv

type digest = Keccak.digest

(* Every level is one flat lane buffer, 4 lanes per node (Keccak's flat
   digest layout): levels.(0) is the (padded) leaf level, the last level
   holds the root. *)
type tree = { levels : Fv.t array; real_leaves : int }

let empty_leaf = Keccak.sha3_256_string "nocap-repro/merkle-empty-leaf"

let of_digests ds =
  let v = Fv.create (4 * Array.length ds) in
  Array.iteri (Keccak.set_digest v) ds;
  v

(* Leaf j is the hash of column j of the row-major [rows * cols] matrix,
   absorbed with stride [cols] straight out of the Bigarray. *)
let leaves_of_matrix ~rows ~cols flat =
  let dst = Fv.create (4 * cols) in
  Keccak.hash_cols_into ~rows ~cols flat ~dst;
  dst

(* One loop over levels. Level 0 is [leaves] itself when the leaf count is
   a power of two, else a copy padded with [empty_leaf]; each level above
   is one batched [Keccak.hash_nodes_into] over the one below. *)
let build leaves =
  let n = Fv.length leaves / 4 in
  if n = 0 || Fv.length leaves land 3 <> 0 then invalid_arg "Merkle.build: need whole leaf digests";
  let depth = Zk_util.Pow2.log2_ceil n in
  let padded = 1 lsl depth in
  let levels = Array.make (depth + 1) leaves in
  if n < padded then begin
    let v = Fv.create (4 * padded) in
    Fv.blit ~src:leaves ~src_pos:0 ~dst:v ~dst_pos:0 ~len:(4 * n);
    for i = n to padded - 1 do
      Keccak.set_digest v i empty_leaf
    done;
    levels.(0) <- v
  end;
  for k = 1 to depth do
    levels.(k) <- Fv.create (4 * (padded lsr k));
    Keccak.hash_nodes_into ~src:levels.(k - 1) ~dst:levels.(k)
  done;
  { levels; real_leaves = n }

let root t = Keccak.digest_at t.levels.(Array.length t.levels - 1) 0

let num_leaves t = t.real_leaves

let depth t = Array.length t.levels - 1

let path_into t i dst ~pos =
  if i < 0 || 4 * i >= Fv.length t.levels.(0) then invalid_arg "Merkle.path_into: index";
  if pos < 0 || pos + (4 * depth t) > Fv.length dst then invalid_arg "Merkle.path_into: dst";
  for k = 0 to depth t - 1 do
    let sib = 4 * ((i lsr k) lxor 1) in
    for l = 0 to 3 do
      Fv.unsafe_set dst (pos + (4 * k) + l) (Fv.unsafe_get t.levels.(k) (sib + l))
    done
  done

(* Level by level over every path at once: each level packs the (node,
   sibling) pairs, ordered by the index bit, into one 8-lane-per-pair buffer
   and hashes them as a batch, so with AVX2 four paths share a permutation.
   Each step is the SHA3-256 of the node and its sibling's 64 bytes. *)
let check_paths ~root ~depth ~index ~leaves ~paths ~path_pos =
  let n = Array.length index in
  if String.length root <> 32 || depth < 0
     || Fv.length leaves <> 4 * n
     || Array.length path_pos <> n
     || Array.exists (fun p -> p < 0 || p + (4 * depth) > Fv.length paths) path_pos
  then invalid_arg "Merkle.check_paths";
  let cur = Fv.copy leaves in
  let pairs = Fv.create (8 * n) in
  for k = 0 to depth - 1 do
    for i = 0 to n - 1 do
      let node, sib = if (index.(i) lsr k) land 1 = 0 then (0, 4) else (4, 0) in
      let s = path_pos.(i) + (4 * k) in
      for l = 0 to 3 do
        Fv.unsafe_set pairs ((8 * i) + node + l) (Fv.unsafe_get cur ((4 * i) + l));
        Fv.unsafe_set pairs ((8 * i) + sib + l) (Fv.unsafe_get paths (s + l))
      done
    done;
    if n > 0 then Keccak.hash_nodes_into ~src:pairs ~dst:cur
  done;
  let root_lane l = String.get_int64_le root (8 * l) in
  Array.init n (fun i ->
      let rec eq l =
        l = 4 || (Int64.equal (Fv.get cur ((4 * i) + l)) (root_lane l) && eq (l + 1))
      in
      eq 0)

let path_length = Zk_util.Pow2.log2_ceil
