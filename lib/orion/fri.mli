(** FRI (Fast Reed-Solomon IOP of Proximity) — the low-degree test behind
    STARKs, one of the hash-based protocol families NoCap's programmability
    covers (Sec. IV-E; the paper cites FRI as [81] and STARKs as [62]).

    The prover commits (via SHA3 Merkle trees) to a polynomial's evaluations
    over a multiplicative coset domain of size [blowup * degree_bound], then
    repeatedly folds even/odd parts with transcript challenges, halving the
    domain until a constant remains. The verifier spot-checks each fold at
    random positions:
    [f_{i+1}(x^2) = (f_i(x) + f_i(-x)) / 2 + beta * (f_i(x) - f_i(-x)) / (2x)]
    and accepts only if the final layer is the claimed constant.

    Every primitive here is a NoCap FU operation: NTTs to evaluate, SHA3 to
    commit, element-wise arithmetic to fold — which is the generality point
    this module exists to demonstrate (its kernels are benchmarked alongside
    Orion's in [bench/main.exe]).

    This module owns the query phase of every FRI proof in the library: the
    flat {!queries} record, its opener ({!open_queries}) and its batched
    checker ({!check_queries}) serve both this low-degree test (and so
    {!Stark}) and {!Fri_pcs}. *)

module Gf = Zk_field.Gf

type params = {
  blowup_log2 : int; (** domain = 2^blowup_log2 * degree bound; 2 here *)
  num_queries : int; (** spot checks per fold; 30 at blowup 4 ~ 60-bit LDT *)
}

val default_params : params

type queries = {
  positions : int array;  (** per query: its layer-0 position *)
  layer_count : int array;  (** per query: the layers it opens *)
  pairs : Nocap_vec.Fv.t;
      (** per opened layer, query after query: [f(x)] then [f(-x)] *)
  path_len : int array;  (** per opened layer: its authentication path's length *)
  paths : Nocap_vec.Fv.t;
      (** every authentication path in the same order, bottom-up, as flat
          lanes (4 per digest, {!Zk_hash.Keccak.digest_at}'s layout) *)
}
(** The spot checks of a proof, flat: no boxed element and no digest
    string between the opener and the verdict. Query [q] opens
    [layer_count.(q)] layers, and its layers' entries follow each other in
    the per-layer arrays and buffers, query after query. Transparent so
    tests and fault injection can edit it field by field. *)

type proof = {
  layer_roots : Zk_merkle.Merkle.digest array; (** one per fold layer, layer 0 first *)
  final_constant : Gf.t;
  queries : queries;
}

val prove :
  ?shift:Gf.t ->
  params ->
  Zk_hash.Transcript.t ->
  Gf.t array ->
  proof
(** [prove params t coeffs] commits to the polynomial with coefficient vector
    [coeffs] (power-of-two length = the degree bound) and proves it is within
    degree. [shift] evaluates over the coset [shift * <w>] instead of the
    plain subgroup — STARKs need this so constraint quotients are defined
    everywhere on the evaluation domain ({!Stark}). *)

val verify :
  ?shift:Gf.t ->
  params ->
  Zk_hash.Transcript.t ->
  degree_bound:int ->
  proof ->
  (unit, Zk_pcs.Verify_error.t) result
(** Replays the transcript, then runs {!check_queries} over the queries.
    [shift] must be the prover's. *)

val proof_size_bytes : proof -> int


val log2_exact : int -> int
(** [log2_exact n] is [k] with [n = 2^k].
    @raise Invalid_argument unless [n] is a positive power of two. *)

(** {2 Shared folding and query machinery}

    One layer step, {!fold_layer}, serves {!prove} and each round of
    {!Fri_pcs}'s opening; both open and check their spot checks with
    {!open_queries} and {!check_queries}. *)

val coset_lde : shift:Gf.t -> domain:int -> Nocap_vec.Fv.t -> Nocap_vec.Fv.t
(** [coset_lde ~shift ~domain coeffs] evaluates the polynomial with
    coefficients [coeffs] over the coset [shift * <w>] of [domain] points:
    coefficient [i] times [shift^i], zero-padded, then one forward NTT.
    Layer 0 of {!prove} and {!Stark}'s trace. *)

val commit_layer : budget:int option -> Nocap_vec.Spill.t -> Zk_merkle.Merkle.tree
(** Merkle tree over an evaluation layer: leaf [j] commits to [(E.(j),
    E.(j + half))], column [j] of the layer read as a [2 x half] matrix. A
    RAM-backed layer is hashed in place; a spilled one a
    {!Nocap_vec.Spill.block_rows} block of leaves at a time through
    {!Zk_merkle.Merkle.Builder}. Same tree either way. *)

val fold_layer :
  shift:Gf.t ->
  budget:int option ->
  Nocap_vec.Spill.t ->
  Gf.t ->
  dst:Nocap_vec.Spill.t ->
  Zk_merkle.Merkle.tree
(** The layer step: [fold_layer ~shift ~budget layer beta ~dst] halves
    [layer], over the coset [shift * <w>], into [dst]:
    [dst.(j) = (E.(j) + E.(j+half)) / 2 + beta * (E.(j) - E.(j+half)) / (2x_j)]
    with [x_j = shift * w^j] ([c'_i = c_{2i} + beta * c_{2i+1}] on the
    coefficients), then returns {!commit_layer} of [dst]. It runs
    {!fold_block} on the {!Nocap_vec.Spill.block_rows} blocks of one
    {!Nocap_vec.Spill.walk} under [budget], in place when RAM-backed; the
    output is the same for every backing and budget.
    @raise Invalid_argument unless [dst] is half of [layer] and at least
    two points long. *)

val fold_at : x_inv:Gf.t -> Gf.t -> Gf.t -> Gf.t -> Gf.t
(** [fold_at ~x_inv beta a b] is one {!fold_layer} output from the pair
    [(a, b) = (f(x), f(-x))] given [x_inv = x^-1]: the verifiers' spot
    check, same arithmetic as the prover's. *)

val fold_block :
  x_inv:Gf.t ->
  w_inv:Gf.t ->
  lo:Nocap_vec.Fv.t ->
  hi:Nocap_vec.Fv.t ->
  dst:Nocap_vec.Fv.t ->
  Gf.t ->
  unit
(** The kernel behind {!fold_layer}, on one block of a layer:
    [dst.(i)] is the fold of [(lo.(i), hi.(i))] at
    [x_i = x_inv^-1 * w_inv^-i] (a running product: no inversion per
    element); [dst] may alias [lo]. Runs the native fold kernel
    ({!Nocap_native.Native.fri_fold}) split across the pool; the output is
    the same in every SIMD tier and for every split.
    @raise Invalid_argument unless the three blocks have one length. *)

val open_queries :
  Nocap_vec.Spill.t array -> Zk_merkle.Merkle.tree array -> int array -> queries
(** [open_queries layers trees positions] opens every query at every
    layer: at layer [i], query [q] reads the pair at [positions.(q) mod
    half_i] and [+ half_i] of [layers.(i)] and the path of that leaf in
    [trees.(i)] (the tree {!commit_layer} builds over that layer). Queries
    are split across the pool; the record is the same for every split. *)

val check_queries :
  shift:Gf.t ->
  roots:Zk_merkle.Merkle.digest array ->
  domain_log2:int ->
  challenges:Gf.t array ->
  positions:int array ->
  final_constant:Gf.t ->
  queries ->
  (unit, Zk_pcs.Verify_error.t) result
(** The verifier's spot checks, batched. [roots] has one root per layer,
    layer 0 (of [2^domain_log2] points over the coset [shift * <w>])
    first; [challenges.(i)] folds layer [i] into [i + 1]; [positions] are
    the transcript's. Checks the query count and the record's shape
    ([shape]), then reports the first failing query with its first failing
    check in the order a one query, one layer at a time walk meets them:
    position ([consistency]), layer count ([shape]), then per layer path
    ([merkle_mismatch]; a path whose length is not the layer tree's depth
    is never walked and reads "wrong path length"), fold ([consistency])
    and, last, the final constant ([consistency]). At layer [i] the fold
    divides by [shift^(2^i) * w_i^pos]; the shift factor is skipped when
    [shift] is one. *)
