(** SHA3-256 (FIPS 202) built on the Keccak-f[1600] permutation, implemented
    from scratch in the C kernel layer ({!Nocap_native.Native}). This is the
    hash the paper's Hash FU implements at 1 KB/cycle (Sec. IV-B); every
    Merkle-tree node and Fiat-Shamir challenge in Spartan+Orion goes
    through it. The boxed reference sponge is [test/oracle/keccak_oracle.ml]. *)

type digest = string
(** 32 bytes. *)

val digest_length : int
(** [32]. *)

val sha3_256 : bytes -> digest
(** SHA3-256 of arbitrary input. *)

val sha3_256_string : string -> digest

val sha3_256_into : bytes -> len:int -> bytes -> unit
(** [sha3_256_into msg ~len out] writes the SHA3-256 of the first [len]
    bytes of [msg] into the first 32 bytes of [out], allocating nothing.
    [out] may be [msg]: the digest is written after the message is read.
    @raise Invalid_argument unless [0 <= len <= Bytes.length msg] and [out]
    holds 32 bytes. *)

val rate_lanes : int
(** [17] — 64-bit lanes absorbed per SHA3-256 block. *)

val block_ns : int
(** Calibrated cost of one scalar Keccak-f[1600] permutation in the C
    kernel (nanoseconds): the cost every batched entry point feeds
    {!Nocap_parallel.Pool.grain_of_ns}. *)

(** {2 Flat digest buffers}

    A digest is four little-endian 64-bit lanes, so [n] digests are one
    [Fv.t] of [4n] lanes with digest [i] at lanes [\[4i, 4i + 4)]. Merkle
    levels live in this form; the batched kernels below read and write it
    directly (no per-digest string). *)

val digest_at : Nocap_vec.Fv.t -> int -> digest
(** The [i]-th digest of a flat buffer, as a 32-byte string. *)

val set_digest : Nocap_vec.Fv.t -> int -> digest -> unit
(** Store a 32-byte digest as the [i]-th of a flat buffer.
    @raise Invalid_argument unless the digest is 32 bytes. *)

val hash_nodes_into : src:Nocap_vec.Fv.t -> dst:Nocap_vec.Fv.t -> unit
(** One Merkle level from the one below: digest [i] of [dst] is
    the SHA3-256 of the 64 bytes of digests [2i] and [2i + 1] of [src]
    (the paper's Hash-FU compression). Nodes split across the
    {!Nocap_parallel.Pool} domains in groups of eight with AVX-512F (one
    8-lane permutation each) and of four otherwise (one 4-lane permutation
    each with AVX2). Byte-identical for every SIMD tier and domain count.
    @raise Invalid_argument unless [Fv.length src = 2 * Fv.length dst] and
    [dst] holds whole digests. *)

val node_grain : unit -> int
(** Nodes per pool claim in {!hash_nodes_into}: whole groups amortizing
    ~50µs of permutations at the current tier's lane count. *)

val hash_cols_into : rows:int -> cols:int -> Nocap_vec.Fv.t -> dst:Nocap_vec.Fv.t -> unit
(** [hash_cols_into ~rows ~cols flat ~dst] hashes each column of the
    row-major [rows * cols] matrix [flat] into digest [j] of [dst]: the
    SHA3-256 of the column's elements packed as 8 little-endian bytes each
    (the Hash FU reinterprets groups of four 64-bit lanes as 256-bit
    inputs), without gathering the column. Columns split
    across the pool in groups as in {!hash_nodes_into}; eight (AVX-512F) or
    four (AVX2) adjacent columns share one sponge permutation.
    @raise Invalid_argument unless [Fv.length flat = rows * cols] and
    [Fv.length dst = 4 * cols]. *)

val sha3_blocks_into : src:Nocap_vec.Fv.t -> dst:Nocap_vec.Fv.t -> int -> unit
(** [sha3_blocks_into ~src ~dst n] hashes [n] independent messages that
    each fit one 136-byte rate block: block [i] is lanes
    [\[17i, 17i + 17)] of [src], message and SHA3 padding (0x06 after the
    message, 0x80 in byte 135) already in place; its digest goes to lanes
    [\[4i, 4i + 4)] of [dst]. Eight blocks share one permutation with
    AVX-512F, four with AVX2 (as {!hash_nodes_into}), on the calling
    domain. Byte-identical for every SIMD tier.
    @raise Invalid_argument unless [src] holds [n] blocks and [dst] [n]
    digests. *)

(** A bank of independent per-column sponges for hashing a row-major matrix
    incrementally: absorb row-blocks as they are produced, finalize once at
    the end. Digests are byte-identical to {!hash_cols_into} on the full
    matrix. Disjoint column ranges may be driven from different domains
    concurrently; rows must arrive in order within each column. *)
module Col_hash : sig
  type t

  val create : int -> t
  (** [create cols] — all sponges start empty. *)

  val absorb :
    t -> Nocap_vec.Fv.t -> row_stride:int -> r_lo:int -> r_hi:int -> c_lo:int -> c_hi:int -> unit
  (** Absorb element [(r, j)] = [flat.((r - r_lo) * row_stride + j)] for
      every row [r] in [\[r_lo, r_hi)] and column [j] in [\[c_lo, c_hi)].
      Lanes follow the absolute row, so a block may have any height. *)

  val finalize : t -> total_rows:int -> c_lo:int -> c_hi:int -> Nocap_vec.Fv.t -> unit
  (** Pad, permute and squeeze columns [\[c_lo, c_hi)] into digest [j] of
      the flat buffer [out] (lanes [\[4j, 4j + 4)]). *)
end

val to_hex : digest -> string

