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

(* Nodes [pos, pos + len) of a level, as a view of its lane buffer. *)
let nodes level ~pos ~len = Fv.sub_view level ~pos:(4 * pos) ~len:(4 * len)

(* Incremental builder for the streaming commit: leaves arrive in chunks
   (as column sponges finalize) and internal nodes are hashed as soon as
   both children exist, so no leaf chunk has to persist. A chunk is cut
   into aligned power-of-two runs: a run of [m] leaves starting at a
   multiple of [m] is a complete subtree, hashed level by level with the
   batched, pool-parallel [Keccak.hash_nodes_into] straight into the
   tree's levels, and only its root joins the serial cascade. One chunk of
   all the leaves is thus a plain level-by-level build. The node set never
   depends on the chunking — the same pair compression, padding with
   [empty_leaf] — so roots and paths are the same for every split. *)
module Builder = struct
  type t = {
    levels : Fv.t array;
    fill : int array; (* nodes written so far at each level *)
    real : int;
    mutable added : int;
  }

  let create n =
    if n <= 0 then invalid_arg "Merkle.Builder.create: need at least one leaf";
    let depth = Zk_util.Pow2.log2_ceil n in
    let padded = 1 lsl depth in
    let levels = Array.init (depth + 1) (fun k -> Fv.create (4 * (padded lsr k))) in
    { levels; fill = Array.make (depth + 1) 0; real = n; added = 0 }

  (* Node [fill.(k)] of level [k] has just been written: count it, and if
     it completes a pair, hash the parent and carry on up. *)
  let rec bump t k =
    let i = t.fill.(k) in
    t.fill.(k) <- i + 1;
    if i land 1 = 1 && k + 1 < Array.length t.levels then begin
      Keccak.hash_nodes_into
        ~src:(nodes t.levels.(k) ~pos:(i - 1) ~len:2)
        ~dst:(nodes t.levels.(k + 1) ~pos:(i / 2) ~len:1);
      bump t (k + 1)
    end

  (* [run] holds a complete subtree's [m] leaves: [m] is a power of two and
     the level-0 fill is a multiple of [m], so level [k] of the subtree
     lands at [fill.(k) = fill.(0) / 2^k] for every [k] up to its root. *)
  let add_subtree t run ~m =
    Fv.blit ~src:run ~src_pos:0 ~dst:t.levels.(0) ~dst_pos:(4 * t.fill.(0)) ~len:(4 * m);
    let k = ref 0 and len = ref m in
    while !len > 1 do
      let f = t.fill.(!k) in
      Keccak.hash_nodes_into
        ~src:(nodes t.levels.(!k) ~pos:f ~len:!len)
        ~dst:(nodes t.levels.(!k + 1) ~pos:(f / 2) ~len:(!len / 2));
      t.fill.(!k) <- f + !len;
      len := !len / 2;
      incr k
    done;
    bump t !k

  let append t leaves =
    let n = Fv.length leaves / 4 in
    let pos = ref 0 in
    while !pos < n do
      (* Largest power of two that fits the rest and divides the fill. *)
      let f = t.fill.(0) in
      let m = ref 1 in
      while 2 * !m <= n - !pos && f land ((2 * !m) - 1) = 0 do
        m := 2 * !m
      done;
      add_subtree t (nodes leaves ~pos:!pos ~len:!m) ~m:!m;
      pos := !pos + !m
    done

  let add t leaves =
    if Fv.length leaves land 3 <> 0 then invalid_arg "Merkle.Builder.add: need whole digests";
    let n = Fv.length leaves / 4 in
    if t.added + n > t.real then invalid_arg "Merkle.Builder.add: too many leaves";
    append t leaves;
    t.added <- t.added + n

  let finish t =
    if t.added <> t.real then
      invalid_arg
        (Printf.sprintf "Merkle.Builder.finish: %d of %d leaves added" t.added t.real);
    let pad = (Fv.length t.levels.(0) / 4) - t.fill.(0) in
    if pad > 0 then append t (of_digests (Array.make pad empty_leaf));
    { levels = t.levels; real_leaves = t.real }
end

let build leaves =
  let n = Fv.length leaves / 4 in
  if n = 0 then invalid_arg "Merkle.build: empty";
  let b = Builder.create n in
  Builder.add b leaves;
  Builder.finish b

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
