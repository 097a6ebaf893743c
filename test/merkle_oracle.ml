(* String-digest Merkle tree: the reference the flat prover tree
   (Zk_merkle.Merkle) is checked against. One [digest array] per level,
   built serially with [Keccak.hash2], padded to a power of two with the
   empty-leaf digest derived here independently of the library. *)

module Keccak = Zk_hash.Keccak

type t = { levels : Keccak.digest array array }

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
             Keccak.hash2 level.(2 * i) level.((2 * i) + 1)))
  in
  { levels = Array.of_list (go [] level0) }

let root t = t.levels.(Array.length t.levels - 1).(0)

let depth t = Array.length t.levels - 1

let path t i = List.init (depth t) (fun k -> t.levels.(k).((i lsr k) lxor 1))
