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
    Orion's in [bench/main.exe]). *)

module Gf = Zk_field.Gf

type params = {
  blowup_log2 : int; (** domain = 2^blowup_log2 * degree bound; 2 here *)
  num_queries : int; (** spot checks per fold; 30 at blowup 4 ~ 60-bit LDT *)
}

val default_params : params

type proof = {
  layer_roots : Zk_merkle.Merkle.digest array; (** one per fold layer *)
  final_constant : Gf.t;
  queries : query array;
}

and query = {
  position : int;
  layers : (Gf.t * Gf.t * Zk_merkle.Merkle.digest list) array;
      (** per layer: f(x), f(-x) and the authentication path of the leaf
          that commits to both *)
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
  (unit, string) result

val proof_size_bytes : proof -> int

(** {2 Shared folding machinery}

    Reused by {!Fri_pcs}, which interleaves these codeword folds with a
    sumcheck to turn the low-degree test into a multilinear PCS. *)

val commit_layer : Nocap_vec.Fv.t -> Zk_merkle.Merkle.tree
(** Merkle tree over an evaluation layer, co-locating [f(x)] and [f(-x)]:
    leaf [j] commits to [(E.(j), E.(j + half))] — column [j] of the layer
    viewed as a [2 x half] row-major matrix
    ({!Zk_merkle.Merkle.leaves_of_matrix}). *)

val fold : shift:Gf.t -> Nocap_vec.Fv.t -> Gf.t -> Nocap_vec.Fv.t
(** [fold ~shift evals beta] halves the layer:
    [out.(j) = (E.(j) + E.(j+half)) / 2 + beta * (E.(j) - E.(j+half)) / (2x_j)]
    where [x_j = shift * w^j]. On the coefficient side this is
    [c'_i = c_{2i} + beta * c_{2i+1}] — it binds monomial bit 0. The
    divisions by [x_j] are a running product of [w^-1] from [shift^-1]:
    two inversions per layer, none per element. *)

val fold_at : x_inv:Gf.t -> Gf.t -> Gf.t -> Gf.t -> Gf.t
(** [fold_at ~x_inv beta a b] is one {!fold} output from the pair
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
(** The kernel behind {!fold}, on one block of a layer:
    [dst.(i)] is the fold of [(lo.(i), hi.(i))] at
    [x_i = x_inv^-1 * w_inv^-i]; [dst] may alias [lo]. A streamed caller
    folding block [\[j, j + len)] passes [x_inv = shift^-1 * w^-j]. Runs
    the native fold kernel when the native layer is on, split across the
    pool; the output is the same in every mode and for every split.
    @raise Invalid_argument unless the three blocks have one length. *)
