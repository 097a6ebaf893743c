(** The native (C) kernel layer and its SIMD tier.

    The C stubs in [nocap_native_stubs.c] are the one production body of
    the hot kernels over [Fv] buffers (Goldilocks elementwise ops, radix-2
    NTT, Keccak-f[1600] sponges, fused RS row encode, the fused sumcheck
    round, the FRI fold, the CSR matrix walk). Each has a portable scalar C
    body and, where the CPU has them, AVX2/NEON bodies and the 8-lane
    AVX-512F Keccak under the flat Merkle kernels, chosen per call by CPUID
    at run time. Every tier is bit-exact against the others and against
    the references in [test/oracle/]. From process start the kernels run
    the widest tier the CPU has; the lower tiers are reachable on a wider
    host only through the test hooks {!with_avx2_only} and
    {!with_scalar_c}. *)

type mode =
  | Scalar  (** portable scalar C *)
  | Neon  (** the NEON bodies (aarch64) *)
  | Avx2  (** the AVX2 bodies, 4-lane Keccak *)
  | Avx512f  (** the AVX2 bodies plus the 8-lane AVX-512F Keccak *)
(** The kernel tier that runs under the current hooks. *)

val mode : unit -> mode
(** The widest tier the kernels run: the CPU's widest outside the hooks. *)

val mode_to_string : mode -> string
(** ["scalar"], ["neon"], ["avx2"] or ["avx512f"], for bench metadata. *)

val with_scalar_c : (unit -> 'a) -> 'a
(** Test and bench hook: run [f] with the SIMD variants disabled, so every
    kernel runs its portable scalar C body; restores the previous tier
    after (also on exceptions). Global, not per domain. *)

val with_avx2_only : (unit -> 'a) -> 'a
(** Test and bench hook, a sibling of {!with_scalar_c}: run [f] with the
    SIMD tiers above AVX2/NEON disabled, so the flat Merkle kernels run
    the 4-lane AVX2 Keccak even on an AVX-512F host. *)

val keccak_lanes : unit -> int
(** Sponges per permutation the flat Merkle kernels and [sha3_blocks] run
    at under the current tier: 8 (AVX-512F), 4 (AVX2) or 1 (scalar C or
    NEON). *)

(** {2 CPU feature detection} *)

val have_avx2 : unit -> bool
val have_neon : unit -> bool
val have_avx512f : unit -> bool

val features_to_string : unit -> string
(** e.g. ["avx2+avx512f"], ["avx2"], ["neon"], or ["none"] — for bench
    metadata. *)

(** {2 Raw stub entry points}

    Exposed for the equivalence test-suite and bench micro-loops; library
    code goes through the checked wrappers in [Fv]/[Ntt]/[Keccak]/
    [Reed_solomon] instead.  All operate on [int64] C-layout Bigarrays and
    perform no bounds checks: callers validate shapes first. *)

type fv = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

external fv_add : fv -> fv -> fv -> unit = "caml_nocap_fv_add" [@@noalloc]
external fv_sub : fv -> fv -> fv -> unit = "caml_nocap_fv_sub" [@@noalloc]
external fv_mul : fv -> fv -> fv -> unit = "caml_nocap_fv_mul" [@@noalloc]
external fv_scale : fv -> fv -> int64 -> unit = "caml_nocap_fv_scale" [@@noalloc]
external fv_axpy : fv -> int64 -> fv -> unit = "caml_nocap_fv_axpy" [@@noalloc]

external fv_lerp : fv -> fv -> fv -> int64 -> unit = "caml_nocap_fv_lerp" [@@noalloc]
(** [fv_lerp dst a b c]: [dst.(i) <- a.(i) + c * (b.(i) - a.(i))]; [dst]
    may alias [a] or [b]. *)

external fri_fold : fv -> fv -> fv -> int64 -> int64 -> unit = "caml_nocap_fri_fold" [@@noalloc]
(** [fri_fold dst lo hi coef w_inv]: the FRI fold of one block,
    [dst.(i) <- (lo.(i) + hi.(i)) / 2 + coef * w_inv^i * (lo.(i) - hi.(i))],
    with the powers of [w_inv] as a running product (four interleaved
    ones under AVX2); [dst] may alias [lo] or [hi]. *)

external sumcheck_round : int -> fv array -> fv array -> int -> int -> int64 -> fv -> unit
  = "caml_nocap_sumcheck_round_byte" "caml_nocap_sumcheck_round"
[@@noalloc]
(** [sumcheck_round kind src dst lo hi r g]: the fused sumcheck round over
    the pairs [\[lo, hi)], for [kind] 0 ([eq * (a * b - c)] over
    [\[| eq; a; b; c |\]], degree 3) or 1 ([a * b], degree 2). With an
    empty [dst], pair [i] of table [j] is [(src.(2j).(i), src.(2j+1).(i))].
    Otherwise [src.(4j .. 4j+3)] are the quarters of table [j]'s previous
    generation: the pass folds them with [r] ([fv_lerp] on quarters 0/2
    and 1/3), stores the pair to [dst.(2j)] and [dst.(2j+1)], and
    evaluates it. [g.(0 .. 3)] receives the sums of the combiner at
    [t = 0 .. degree] (entries past [degree] read 0); [t >= 2] is walked
    add-only from [hi]. *)

external csr_eval : int array -> int array -> fv -> fv -> fv -> fv -> fv -> (int64[@unboxed])
  = "caml_nocap_csr_eval_byte" "caml_nocap_csr_eval"
[@@noalloc]
(** [csr_eval row_ptr col_idx values row_hi row_lo col_hi col_lo]: the
    sparse matrix MLE walk of [Zk_r1cs.Sparse.mle_eval_split] over a CSR
    matrix's arrays, with [2^s] the length of each [lo] table; one field
    element, returned unboxed. Scalar C only (gather-bound). *)

external ntt_forward : fv -> fv -> unit = "caml_nocap_ntt_forward" [@@noalloc]
(** [ntt_forward buf tw]: in-place forward NTT of [buf] (length n, a power
    of two) against the shared twiddle table [tw] (length [n/2]). *)

external ntt_inverse : fv -> fv -> int64 -> unit = "caml_nocap_ntt_inverse" [@@noalloc]
(** [ntt_inverse buf inv_tw n_inv]: inverse NTT including the [1/n] scale. *)

external rs_encode_row : fv -> fv -> fv -> unit = "caml_nocap_rs_encode_row" [@@noalloc]
(** [rs_encode_row src dst tw]: copy [src] into [dst], zero-pad, forward
    NTT of [dst] — the fused Reed-Solomon row encode. *)

external f1600_off : fv -> int -> unit = "caml_nocap_f1600_off" [@@noalloc]
(** Keccak-f[1600] permutation of the 25 lanes at offset [off]. *)

external sha3 : Bytes.t -> int -> Bytes.t -> unit = "caml_nocap_sha3" [@@noalloc]
(** [sha3 msg len out]: SHA3-256 of the first [len] bytes of [msg] into the
    first 32 bytes of [out]; [out] may be [msg]. *)

external hash_nodes : fv -> fv -> int -> int -> unit = "caml_nocap_hash_nodes" [@@noalloc]
(** [hash_nodes src dst lo hi]: for every node [i] in [\[lo, hi)], the
    digest lanes [dst.(4i .. 4i + 3)] are the SHA3-256 of the 64 bytes in
    lanes [src.(8i .. 8i + 7)] — one flat Merkle level from the one below.
    With AVX2 four nodes share one 4-lane permutation. *)

external sha3_blocks : fv -> fv -> int -> int -> unit = "caml_nocap_sha3_blocks" [@@noalloc]
(** [sha3_blocks src dst lo hi]: for every block [i] in [\[lo, hi)], the
    digest lanes [dst.(4i .. 4i + 3)] are one permutation of the 17 lanes
    [src.(17i .. 17i + 16)]: the SHA3-256 of a message that fits one rate
    block, padding included. Eight blocks per AVX-512F permutation, then
    four per AVX2 one, as in [hash_nodes]. *)

external hash_cols : fv -> int -> int -> fv -> int -> int -> unit
  = "caml_nocap_hash_cols_byte" "caml_nocap_hash_cols"
[@@noalloc]
(** [hash_cols flat cols rows dst lo hi]: for every column [j] in
    [\[lo, hi)] of the row-major [rows * cols] matrix [flat], the digest
    lanes [dst.(4j .. 4j + 3)] are the SHA3-256 of the column's elements
    absorbed as lanes. With AVX2 four adjacent columns share one 4-lane
    permutation. *)

external col_absorb : fv -> fv -> int -> int -> int -> int -> int -> unit
  = "caml_nocap_col_absorb_byte" "caml_nocap_col_absorb"
[@@noalloc]
(** [col_absorb states flat row_stride r_lo r_hi c_lo c_hi]: incremental
    column-sponge absorption for [Keccak.Col_hash]: [flat] holds rows
    [\[r_lo, r_hi)] from its row 0, each absorbed into lane [r mod 17] of
    its column's sponge. *)

external gl_pow : int64 -> int64 -> int64 = "caml_nocap_gl_pow"
(** Goldilocks exponentiation (test hook for the C field arithmetic). *)

(** {2 Spill-file I/O} *)

val pread : Unix.file_descr -> fv -> int -> unit
(** [pread fd dst off] fills [dst] from file bytes [\[off, off + 8 * length
    dst)] (little-endian images), looping on [EINTR] and partial reads,
    with the runtime lock released.
    @raise Unix.Unix_error on an errno, [Failure] if the file ends first. *)

val pwrite : Unix.file_descr -> fv -> int -> unit
(** [pwrite fd src off]: the inverse of {!pread}; [Failure] on a
    zero-byte write. *)
