(** The sumcheck protocol (Listing 1 of the paper, generalized to products of
    multilinear tables).

    The prover convinces the verifier that
    [sum_{b in {0,1}^L} comb(T_1(b), ..., T_k(b)) = claim], where each [T_j]
    is a multilinear table of size [2^L] and [comb] is a polynomial of total
    degree at most [degree] in its arguments.

    Each of the [L] rounds the prover sends the round polynomial
    [g_i(t) = sum_b comb(...)] restricted to the current top variable,
    tabulated at [t = 0..degree]; the verifier checks
    [g_i(0) + g_i(1) = previous claim], derives the Fiat-Shamir challenge
    [r_i], and reduces to the claim [g_i(r_i)]. After all rounds the claim
    must equal [comb] of the tables' multilinear evaluations at [r], which the
    caller ties to commitment openings.

    This is the dominant task in Spartan+Orion (~70% of runtime, Fig. 6); the
    [stats] record feeds the NoCap performance model. *)

module Gf = Zk_field.Gf

type proof = { round_polys : Gf.t array array }
(** [round_polys.(i)] has [degree + 1] evaluations of [g_i] at [0..degree]. *)

type stats = {
  rounds : int;
  mults : int; (** field multiplications performed by the prover *)
  adds : int; (** field additions performed by the prover *)
}

type prover_result = {
  proof : proof;
  challenges : Gf.t array; (** the random point r, one entry per round *)
  final_values : Gf.t array; (** each table folded down to its MLE at r *)
  stats : stats;
}

val prove_streaming :
  ?engine:Zk_pcs.Engine.t ->
  ?comb_mults:int ->
  ?budget_bytes:int ->
  Zk_hash.Transcript.t ->
  degree:int ->
  tables:Nocap_vec.Spill.t array ->
  comb:(Gf.t array -> Gf.t) ->
  claim:Gf.t ->
  prover_result
(** Runs the prover over spillable tables. [comb] receives one value per
    table; [comb_mults] is the number of field multiplications one [comb]
    call performs (default 0), so [stats] can account for them. The claim
    is absorbed into the transcript, so prover and verifier bind to it.
    [engine] supplies the worker pool for round evaluation and folds.

    With no [budget_bytes] the tables are copied once into unboxed RAM
    vectors and every round folds them in place. Under a budget no folded
    table generation is ever stored (recompute-halves): after j rounds the
    current table is recomputed on the fly as an eq-weighted sum of
    strided slices of the original, read in budget-sized blocks; once the
    shrinking residual fits half the budget, it is materialized into RAM
    and the in-place loop finishes. Each streamed round costs one full
    pass over the original tables. The result — proof bytes, challenges,
    final values, stats — is the same for every budget and every engine.
    [tables] are read, never written; the caller frees them.
    @raise Invalid_argument if [budget_bytes <= 0]. *)

val prove :
  ?engine:Zk_pcs.Engine.t ->
  ?comb_mults:int ->
  Zk_hash.Transcript.t ->
  degree:int ->
  tables:Gf.t array array ->
  comb:(Gf.t array -> Gf.t) ->
  claim:Gf.t ->
  prover_result
(** {!prove_streaming} with no budget over boxed tables, which are not
    mutated (they are copied once into unboxed vectors). *)

val prove_arrays :
  ?engine:Zk_pcs.Engine.t ->
  ?comb_mults:int ->
  Zk_hash.Transcript.t ->
  degree:int ->
  tables:Gf.t array array ->
  comb:(Gf.t array -> Gf.t) ->
  claim:Gf.t ->
  prover_result
(** Boxed-array reference implementation of {!prove}: same chunking, same
    combine order, same arithmetic, byte-identical proof and challenges.
    Kept as the correctness oracle the budget sweeps compare against. *)

type verifier_result = {
  point : Gf.t array;
  value : Gf.t; (** the reduced claim comb(T_1(r), ..., T_k(r)) must equal *)
}

val verify :
  Zk_hash.Transcript.t ->
  degree:int ->
  num_vars:int ->
  claim:Gf.t ->
  proof ->
  (verifier_result, Zk_pcs.Verify_error.t) result
(** Replays the rounds, checking [g_i(0) + g_i(1)] against the running claim.
    The caller must still check [result.value] against oracle evaluations of
    the tables at [result.point]. Total on arbitrary proofs: a wrong round
    count or round-polynomial degree is [Shape], a failed running-claim
    check is [Sumcheck_mismatch], and [degree < 1] is [Params] (a degree-0
    round polynomial could not even be length-checked against [g(1)]). *)
