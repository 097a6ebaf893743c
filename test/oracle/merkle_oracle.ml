(* String-digest Merkle tree and path check: the reference the flat
   prover tree and the batched path walk (Zk_merkle.Merkle) are checked
   against. One [digest array] per level, built serially with [hash2],
   padded to a power of two with the empty-leaf digest derived here
   independently of the library; a path is a digest list, walked one
   [hash2] at a time. Leaves and nodes are [Keccak.sha3_256] of their
   packed bytes: the whole-message sponge, which the native suite checks
   against the boxed [Keccak_oracle.sha3_256] at every length in every
   kernel leg, and whose absorb and padding code is separate from the
   Merkle kernels'. The boxed sponge itself is ~25x slower, too slow for
   the oracle verifiers that walk these paths in every mutation case. *)

module Keccak = Zk_hash.Keccak
module Merkle = Zk_merkle.Merkle
module Fv = Nocap_vec.Fv

type t = { levels : Keccak.digest array array }

(* An interior node: SHA3-256 of the 64-byte concatenation. *)
let hash2 a b = Keccak.sha3_256 (Bytes.of_string (a ^ b))

let empty_leaf = Keccak.sha3_256_string "nocap-repro/merkle-empty-leaf"

let build leaves =
  let n = Array.length leaves in
  if n = 0 then invalid_arg "Merkle_oracle.build: empty";
  let padded =
    let rec go k = if k >= n then k else go (2 * k) in
    go 1
  in
  let level0 = Array.make padded empty_leaf in
  Array.blit leaves 0 level0 0 n;
  let rec go acc level =
    if Array.length level = 1 then List.rev (level :: acc)
    else
      go (level :: acc)
        (Array.init (Array.length level / 2) (fun i ->
             hash2 level.(2 * i) level.((2 * i) + 1)))
  in
  { levels = Array.of_list (go [] level0) }

let root t = t.levels.(Array.length t.levels - 1).(0)

let depth t = Array.length t.levels - 1

let path t i = List.init (depth t) (fun k -> t.levels.(k).((i lsr k) lxor 1))

(* A flat tree's path for leaf [i], read back as a digest list. *)
let path_of_tree tree i =
  let depth = Merkle.depth tree in
  let lanes = Fv.create (4 * depth) in
  Merkle.path_into tree i lanes ~pos:0;
  List.init depth (Keccak.digest_at lanes)

(* Hash a column of field elements into a leaf (8 LE bytes per element). *)
let leaf_of_column col =
  let bytes = Bytes.create (8 * Array.length col) in
  Array.iteri (fun i e -> Bytes.set_int64_le bytes (8 * i) (Zk_field.Gf.to_int64 e)) col;
  Keccak.sha3_256 bytes

(* A path longer than this cannot belong to any addressable tree (leaf
   counts are OCaml ints); it only ever appears in hostile input, so bound
   the walk before hashing anything. *)
let max_proof_depth = 62

(* [Ok ()] when [leaf] hashes up [path] to [root] at [index], else the
   reason. Total on arbitrary input. It checks no path length against a
   tree depth: its callers do that first. *)
let check_path ~root ~index ~leaf ~path =
  if index < 0 then Error "negative leaf index"
  else if List.length path > max_proof_depth then Error "path too long"
  else if List.exists (fun d -> String.length d <> 32) path then
    Error "path digest has wrong length"
  else begin
    let rec go idx current = function
      | [] -> if String.equal current root then Ok () else Error "root mismatch"
      | sibling :: rest ->
        let parent =
          if idx land 1 = 0 then hash2 current sibling else hash2 sibling current
        in
        go (idx / 2) parent rest
    in
    go index leaf path
  end
