(** SHA3-256 Merkle trees (Sec. V-A "Merkle tree" task).

    Orion commits to an encoded matrix by hashing each codeword column into a
    leaf and Merkle-hashing the leaves; openings reveal a column together with
    its authentication path. Trees and paths are flat lane buffers
    ({!path_into}, {!check_paths}); roots are 32-byte [digest] strings.
    Leaves and nodes share one hash: an 8-element leaf hashes the same 64
    bytes as a node over two digests, so a verifier must reject a path
    whose digest count is not the tree depth, or a node opens as a leaf. *)

type digest = Zk_hash.Keccak.digest

type tree
(** Every level is one flat {!Nocap_vec.Fv.t} lane buffer holding 4
    little-endian lanes per node ({!Zk_hash.Keccak.digest_at}'s layout):
    no per-node string. *)

val build : Nocap_vec.Fv.t -> tree
(** Build over flat leaf digests (4 lanes per leaf, e.g. from
    {!leaves_of_matrix} or {!of_digests}). The leaf count is padded to a
    power of two with a distinguished empty digest. Each level is hashed as
    one batched {!Zk_hash.Keccak.hash_nodes_into} call split across the
    {!Nocap_parallel.Pool} domains, eight nodes per AVX-512F permutation
    or four per AVX2 one; the tree is the same for every domain count and
    SIMD tier.
    @raise Invalid_argument on an empty leaf buffer. *)

val of_digests : digest array -> Nocap_vec.Fv.t
(** Pack digests into a flat leaf buffer for {!build} / {!Builder.add}. *)

val leaves_of_matrix : rows:int -> cols:int -> Nocap_vec.Fv.t -> Nocap_vec.Fv.t
(** Flat leaf digests for every column of a row-major [rows * cols] encoded
    matrix, read with stride [cols] straight out of the unboxed buffer
    ({!Zk_hash.Keccak.hash_cols_into}). Leaf [j] is the SHA3-256 of column
    [j] packed as 8 LE bytes per element, as the Hash FU packs vector
    lanes. *)

(** Incremental tree construction for the streaming commit: flat leaf
    chunks arrive as column sponges finalize, and internal nodes are hashed
    eagerly the moment both children exist. Each chunk is cut into aligned
    power-of-two runs, and every run is a complete subtree hashed level by
    level into the tree's flat levels with the batched, pool-parallel node
    kernel, so one chunk of all the leaves costs what {!build} costs.
    [finish] returns the tree {!build} gives over the same leaves (same
    pair hashing, same [empty_leaf] padding); only the hashing schedule
    differs. *)
module Builder : sig
  type t

  val create : int -> t
  (** [create n] expects exactly [n] real leaves.
      @raise Invalid_argument if [n <= 0]. *)

  val add : t -> Nocap_vec.Fv.t -> unit
  (** Append the next chunk of flat leaf digests (4 lanes each), in leaf
      order. The chunk is copied; the caller may reuse it.
      @raise Invalid_argument past [n] leaves or on a partial digest. *)

  val finish : t -> tree
  (** Pad and finish. @raise Invalid_argument unless exactly [n] leaves
      were added. *)
end

val root : tree -> digest

val num_leaves : tree -> int
(** Number of real (unpadded) leaves. *)

val depth : tree -> int

val path_into : tree -> int -> Nocap_vec.Fv.t -> pos:int -> unit
(** [path_into t i dst ~pos] writes the authentication path of leaf [i]
    (its sibling at each level, bottom-up, {!depth} digests) as flat lanes
    (4 per digest) into [dst] at lane [pos]: copied straight from the
    tree's levels, no digest string.
    @raise Invalid_argument on a bad index or a too-short [dst]. *)

val check_paths :
  root:digest ->
  depth:int ->
  index:int array ->
  leaves:Nocap_vec.Fv.t ->
  paths:Nocap_vec.Fv.t ->
  path_pos:int array ->
  bool array
(** Check [n = Array.length index] paths that all have [depth] digests
    against one root: leaf [i] is digest [i] of [leaves] (4 lanes each) and
    its path the [depth] digests at lanes [\[path_pos.(i), path_pos.(i) +
    4 * depth)] of [paths]. Element [i] of the result is whether leaf [i]
    hashes up to [root] at [index.(i)]. The walk goes level by level, one
    {!Zk_hash.Keccak.hash_nodes_into} batch per level. A verifier checks
    that each path it was sent has [depth] digests before it gets here.
    @raise Invalid_argument on mismatched shapes or a root that is not 32
    bytes. *)

val path_length : int -> int
(** [path_length n] is the authentication-path length for [n] leaves
    (= ceil(log2 n)); used by the proof-size model. *)
