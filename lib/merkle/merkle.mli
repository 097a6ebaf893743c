(** SHA3-256 Merkle trees (Sec. V-A "Merkle tree" task).

    Orion commits to an encoded matrix by hashing each codeword column into a
    leaf and Merkle-hashing the leaves; openings reveal a column together with
    its authentication path. *)

type digest = Zk_hash.Keccak.digest

type tree

val build : digest array -> tree
(** Build over the given leaf digests. The leaf count is padded to a power of
    two with a distinguished empty digest. Each level is hashed as one
    batched call split across the {!Nocap_parallel.Pool} domains; the tree
    is byte-identical to {!build_serial} for every domain count.
    @raise Invalid_argument on an empty leaf array. *)

val build_serial : digest array -> tree
(** Single-domain reference implementation of {!build} (the oracle the
    parallel/serial equivalence tests compare against). *)

val leaf_of_column : Zk_field.Gf.t array -> digest
(** Hash a column of field elements into a leaf (8 LE bytes per element, as
    the Hash FU packs vector lanes). *)

val leaves_of_columns : Zk_field.Gf.t array array -> digest array
(** Batched {!leaf_of_column} over independent columns, split across the
    pool domains. *)

val leaves_of_matrix : rows:int -> cols:int -> Nocap_vec.Fv.t -> digest array
(** Leaf digests for every column of a row-major [rows * cols] flat encoded
    matrix, read with stride [cols] straight out of the unboxed buffer.
    Equals {!leaves_of_columns} of the gathered columns. *)

(** Incremental tree construction for the streaming commit: leaf digests
    arrive in chunks as column sponges finalize, and internal nodes are
    hashed eagerly the moment both children exist. Each chunk is cut into
    aligned power-of-two runs, and every run is a complete subtree hashed
    level by level with the batched, pool-parallel pair hasher, so one
    chunk of all the leaves costs what {!build} costs. [finish] returns a
    tree byte-identical to {!build} over the same leaves (same pair
    hashing, same [empty_leaf] padding); only the hashing schedule
    differs. *)
module Builder : sig
  type t

  val create : int -> t
  (** [create n] expects exactly [n] real leaves.
      @raise Invalid_argument if [n <= 0]. *)

  val add : t -> digest array -> unit
  (** Append the next chunk of leaves, in leaf order.
      @raise Invalid_argument past [n] leaves. *)

  val finish : t -> tree
  (** Pad and finish. @raise Invalid_argument unless exactly [n] leaves
      were added. *)
end

val root : tree -> digest

val num_leaves : tree -> int
(** Number of real (unpadded) leaves. *)

val depth : tree -> int

val path : tree -> int -> digest list
(** Authentication path for leaf [i], bottom-up (sibling at each level). *)

val verify : root:digest -> index:int -> leaf:digest -> path:digest list -> bool
(** Check a leaf against a root. Total on arbitrary input. *)

val max_proof_depth : int
(** Longest authentication path [check_path] will walk (62): a longer path
    cannot belong to any addressable tree and is rejected before hashing. *)

val check_path :
  root:digest -> index:int -> leaf:digest -> path:digest list -> (unit, string) result
(** {!verify} with a reason on failure ("root mismatch", "path too long",
    ...). Total on arbitrary input: hostile indices, over-long paths, and
    wrong-length digests are rejected, never raised on. This layer reports
    plain strings so it stays independent of the PCS error taxonomy;
    callers wrap the reason in [Verify_error.Merkle_mismatch]. *)

val path_length : int -> int
(** [path_length n] is the authentication-path length for [n] leaves
    (= ceil(log2 n)); used by the proof-size model. *)
