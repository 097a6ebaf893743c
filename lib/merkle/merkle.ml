module Keccak = Zk_hash.Keccak

type digest = Keccak.digest

type tree = {
  (* levels.(0) is the (padded) leaf level; the last level is [| root |]. *)
  levels : digest array array;
  real_leaves : int;
}

let empty_leaf = Keccak.sha3_256_string "nocap-repro/merkle-empty-leaf"

let next_pow2 n =
  let rec go k = if k >= n then k else go (2 * k) in
  go 1

let leaf_of_column col = Keccak.hash_gf col

let leaves_of_columns cols = Keccak.hash_gf_batch cols

(* Flat fast path: leaf j is the hash of column j of the row-major
   [rows * cols] matrix, absorbed with stride [cols] straight out of the
   Bigarray — no per-column gather, no boxed intermediate. *)
let leaves_of_matrix ~rows ~cols flat = Keccak.hash_matrix_cols ~rows ~cols flat

let build_with ~pairs leaves =
  let n = Array.length leaves in
  if n = 0 then invalid_arg "Merkle.build: empty";
  let padded = next_pow2 n in
  let level0 = Array.make padded empty_leaf in
  Array.blit leaves 0 level0 0 n;
  let rec go acc level =
    if Array.length level = 1 then List.rev (level :: acc)
    else go (level :: acc) (pairs level)
  in
  { levels = Array.of_list (go [] level0); real_leaves = n }

(* Serial oracle for the parallel build: same tree, one domain. *)
let build_serial leaves =
  build_with leaves ~pairs:(fun level ->
      Array.init
        (Array.length level / 2)
        (fun i -> Keccak.hash2 level.(2 * i) level.((2 * i) + 1)))

let build leaves = build_with leaves ~pairs:Keccak.hash2_pairs

(* Incremental builder for the streaming commit: leaves arrive in chunks
   (as column sponges finalize) and internal nodes are hashed as soon as
   both children exist, so no leaf chunk has to persist. A chunk is cut
   into aligned power-of-two runs: a run of [m] leaves starting at a
   multiple of [m] is a complete subtree, hashed level by level with the
   batched, pool-parallel [Keccak.hash2_pairs] exactly as [build] does,
   and only its root joins the serial cascade. A single-chunk build thus
   does [build]'s work. Either way the node set is [build]'s — pairs
   hashed with [Keccak.hash2], padding with [empty_leaf] — so roots and
   paths are byte-identical to the one-shot build. *)
module Builder = struct
  type t = {
    levels : digest array array;
    fill : int array; (* entries written so far at each level *)
    real : int;
    mutable added : int;
  }

  let create n =
    if n <= 0 then invalid_arg "Merkle.Builder.create: need at least one leaf";
    let padded = next_pow2 n in
    let rec depth_of k m = if m = 1 then k else depth_of (k + 1) (m / 2) in
    let depth = depth_of 0 padded in
    let levels = Array.init (depth + 1) (fun k -> Array.make (padded lsr k) empty_leaf) in
    { levels; fill = Array.make (depth + 1) 0; real = n; added = 0 }

  let rec push t k d =
    let i = t.fill.(k) in
    t.levels.(k).(i) <- d;
    t.fill.(k) <- i + 1;
    if i land 1 = 1 && k + 1 < Array.length t.levels then
      push t (k + 1) (Keccak.hash2 t.levels.(k).(i - 1) d)

  (* [run] is a complete subtree: its length [m] is a power of two and the
     level-0 fill is a multiple of [m], so level [k] of the subtree lands
     at [fill.(k) = fill.(0) / 2^k] for every [k] below its root. *)
  let add_subtree t run =
    let level = ref run and k = ref 0 in
    while Array.length !level > 1 do
      let lv = !level in
      Array.blit lv 0 t.levels.(!k) t.fill.(!k) (Array.length lv);
      t.fill.(!k) <- t.fill.(!k) + Array.length lv;
      level := Keccak.hash2_pairs lv;
      incr k
    done;
    push t !k !level.(0)

  let append t leaves =
    let n = Array.length leaves in
    let pos = ref 0 in
    while !pos < n do
      (* Largest power of two that fits the rest and divides the fill. *)
      let f = t.fill.(0) in
      let m = ref 1 in
      while 2 * !m <= n - !pos && f land ((2 * !m) - 1) = 0 do
        m := 2 * !m
      done;
      if !m = 1 then push t 0 leaves.(!pos)
      else add_subtree t (if !m = n then leaves else Array.sub leaves !pos !m);
      pos := !pos + !m
    done

  let add t leaves =
    let n = Array.length leaves in
    if t.added + n > t.real then invalid_arg "Merkle.Builder.add: too many leaves";
    append t leaves;
    t.added <- t.added + n

  let finish t =
    if t.added <> t.real then
      invalid_arg
        (Printf.sprintf "Merkle.Builder.finish: %d of %d leaves added" t.added t.real);
    append t (Array.make (Array.length t.levels.(0) - t.fill.(0)) empty_leaf);
    { levels = t.levels; real_leaves = t.real }
end

let root t = t.levels.(Array.length t.levels - 1).(0)

let num_leaves t = t.real_leaves

let depth t = Array.length t.levels - 1

let path t i =
  if i < 0 || i >= Array.length t.levels.(0) then invalid_arg "Merkle.path: index";
  let rec go level idx acc =
    if level >= Array.length t.levels - 1 then List.rev acc
    else begin
      let sibling = t.levels.(level).(idx lxor 1) in
      go (level + 1) (idx / 2) (sibling :: acc)
    end
  in
  go 0 i []

(* A path longer than this cannot belong to any addressable tree (leaf
   counts are OCaml ints); it only ever appears in hostile input, so bound
   the walk before hashing anything. *)
let max_proof_depth = 62

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
          if idx land 1 = 0 then Keccak.hash2 current sibling
          else Keccak.hash2 sibling current
        in
        go (idx / 2) parent rest
    in
    go index leaf path
  end

let verify ~root ~index ~leaf ~path =
  Result.is_ok (check_path ~root ~index ~leaf ~path)

let path_length n =
  let rec go k m = if m >= n then k else go (k + 1) (2 * m) in
  go 0 1
