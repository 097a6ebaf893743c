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
    [stats] record feeds the NoCap performance model. It is the one sumcheck
    prover and verifier over the base field: Spartan's two sumchecks,
    [Aggregate]'s and the FRI PCS opening all run on {!prove} and
    {!verify}, which differ only in their {!framing} and {!comb}. *)

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
  claim : Gf.t; (** the sum over the cube: round 0's g(0) + g(1) *)
  challenges : Gf.t array; (** the random point r, one entry per round *)
  final_values : Gf.t array; (** each table folded down to its MLE at r *)
  stats : stats;
}

(** {1 The combiner}

    [comb] is the polynomial the rounds sum, with its degree and its
    multiplications per point (for [stats]):

    - [Eq_abc]: Spartan's first combiner [eq * (a * b - c)] over the tables
      [[| eq; a; b; c |]], degree 3, two multiplications per point.
    - [Product]: [a * b] over [[| a; b |]], degree 2, one multiplication
      (Spartan's and [Aggregate]'s second sumchecks, the FRI PCS opening).
    - [Eq_abc_batch rho]: [Aggregate]'s batched first combiner
      [eq * sum_i rho.(i) * (a_i * b_i - c_i)] over
      [[| eq; a_1; b_1; c_1; ...; a_k; b_k; c_k |]] ([k = Array.length
      rho >= 1]), degree 3, [2k] multiplications per point.

    A round is one pass over the tables on the fused native kernel
    ([Nocap_native.Native.sumcheck_round]: AVX2 or scalar C). Per chunk
    of pairs it reads each table's lo/hi halves once; in RAM, every round
    after the first folds them with the previous challenge in the same
    pass ([lo + r * (hi - lo)] on the previous generation's quarters) and
    writes each half once. Each [t >= 2] is walked add-only ([hi + (t -
    1) * (hi - lo)]) and g(0..degree) is summed with no scratch.
    [Eq_abc_batch] makes one [Eq_abc] call per instance and weights its
    sums by [rho.(i)]; the shared eq table folds in the first call only.
    Goldilocks arithmetic is exact, so the round polynomials are those of
    the combiner summed point by point. *)

type comb = Eq_abc | Product | Eq_abc_batch of Gf.t array

val degree : comb -> int
(** 3 for [Eq_abc] and [Eq_abc_batch], 2 for [Product]. *)

val comb_mults : comb -> int
(** Field multiplications per point: 2 for [Eq_abc], 1 for [Product],
    [2k] for [Eq_abc_batch] over [k] weights. *)

(** {1 Transcript framing} *)

type framing = {
  prelude : Zk_hash.Transcript.t -> num_vars:int -> degree:int -> Gf.t -> unit;
      (** binds the claim (the last argument) before round 0's polynomial *)
  round_label : string; (** the label each round polynomial is absorbed under *)
  challenge_label : string; (** the label each round challenge is drawn under *)
  after_round : int -> Gf.t -> unit;
      (** [after_round i r] runs after round [i]'s challenge [r] is drawn,
          before round [i + 1]'s polynomial is absorbed *)
}
(** What a sumcheck writes to the transcript around its rounds, shared by
    {!prove} and {!verify} so both sides frame a proof the same way. A
    caller that interleaves its own protocol with the rounds (the FRI PCS
    opening folds and commits a codeword layer per challenge on the
    prover side, and absorbs that layer's root on the verifier side) does
    so in [after_round].

    The default framing, used when [?framing] is omitted: the prelude
    absorbs [sumcheck/num_vars], [sumcheck/degree] and [sumcheck/claim];
    rounds use [sumcheck/round] and [sumcheck/challenge]; [after_round]
    does nothing. *)

(** {1 Prover and verifier} *)

val prove :
  ?budget_bytes:int ->
  ?framing:framing ->
  Zk_hash.Transcript.t ->
  tables:Nocap_vec.Spill.t array ->
  comb:comb ->
  prover_result
(** The sumcheck prover, over spillable tables, for the combiner [comb]
    (its degree and multiplication count come with it).

    The prover works out its own claim: it is round 0's [g(0) + g(1)]
    (with no rounds, [comb] at the single point), returned as
    [result.claim]. [framing]'s prelude (default: the default framing)
    absorbs it just before round 0's polynomial; computing that polynomial
    touches no transcript, so the transcript is the one a prover handed
    the honest claim would build.

    With no [budget_bytes] every round runs on unboxed RAM vectors:
    RAM-backed tables are read where they are and the first fold writes
    fresh half-length vectors (file-backed ones are loaded into RAM
    first); later folds are in place, each fused into the next round's
    pass. Under a budget no folded table generation is ever stored
    (recompute-halves): after j rounds the current table is recomputed on
    the fly as an eq-weighted sum of strided slices of the original, read
    in budget-sized blocks, and each recomputed block pair goes through
    the same round kernel; once the shrinking residual fits half the
    budget, it is materialized into RAM and the in-RAM loop finishes.
    Each streamed round costs one full pass over the original tables. The
    result — proof bytes, challenges, final values, stats — is the same
    for every budget, domain count and kernel tier. [tables] are read,
    never written; the caller frees them.
    @raise Invalid_argument if the number of [tables] does not match [Eq_abc] (4),
    [Product] (2) or [Eq_abc_batch] ([1 + 3k], [k >= 1]), their lengths
    differ or are not a power of two, or [budget_bytes <= 0]. *)

type verifier_result = {
  point : Gf.t array;
  value : Gf.t; (** the reduced claim comb(T_1(r), ..., T_k(r)) must equal *)
}

val verify :
  ?framing:framing ->
  Zk_hash.Transcript.t ->
  degree:int ->
  num_vars:int ->
  claim:Gf.t ->
  proof ->
  (verifier_result, Zk_pcs.Verify_error.t) result
(** Replays the rounds under [framing] (default: the default framing),
    checking [g_i(0) + g_i(1)] against the running claim and reducing it
    to [g_i(r_i)] with {!eval_round_poly} (no field inversion per round).
    The caller must still check [result.value] against oracle evaluations
    of the tables at [result.point]. Total on arbitrary proofs: a wrong round
    count or round-polynomial degree is [Shape], a failed running-claim
    check is [Sumcheck_mismatch], and [degree < 1] is [Params] (a degree-0
    round polynomial could not even be length-checked against [g(1)]). *)

(** {1 Round-polynomial evaluation}

    A round polynomial travels as its values at the nodes [0..d]. The
    verifiers evaluate it at the challenge in barycentric form,
    [g(r) = sum_i g(i) * w_i * prod_{j <> i} (r - j)], with the products
    taken from prefix and suffix products of the factors [(r - j)]. The
    weights [w_i] are fixed per degree, so a round does no inversion. *)

val round_weights : int -> Gf.t array
(** [round_weights d] is [w_0..w_d] for the nodes [0..d]:
    [w_i = 1 / prod_{j <> i} (i - j) = (-1)^(d-i) / (i! (d-i)!)].
    Computed once per degree (per domain) and kept; the caller must not
    write to it.
    {!Zk_sumcheck.Sumcheck_ext} scales by the same weights.
    @raise Invalid_argument if [d < 0]. *)

val eval_round_poly : Gf.t array -> Gf.t -> Gf.t
(** [eval_round_poly g r] is the value at [r] of the polynomial of degree
    [< Array.length g] with values [g.(i)] at [i = 0..d]. Exact at the
    nodes. @raise Invalid_argument if [g] is empty. *)

(** {1 Byte form} *)

val write_proof : Buffer.t -> proof -> unit
(** The round count, then each round polynomial length-prefixed
    ({!Zk_pcs.Codec.put_gf_array}). *)

val read_proof : Zk_pcs.Codec.reader -> (proof, Zk_pcs.Verify_error.t) result
(** The inverse of {!write_proof}; each round polynomial is decoded with
    {!Zk_pcs.Codec.get_fv}. Total on arbitrary bytes. *)

val proof_size_bytes : proof -> int
(** 8 bytes per round-polynomial evaluation; length prefixes are not
    counted. *)

(** {1 Round kernel}

    One round of {!prove} on RAM vectors, exposed for the kernel benches
    and tests. *)

val round_kernel :
  comb -> ?fold:Gf.t * Nocap_vec.Fv.t array -> Nocap_vec.Fv.t array -> Gf.t array
(** [round_kernel comb tabs] is the round polynomial [g(0..degree)] over
    [tabs] (all of one even length [2h]), pairing entry [b] with [b + h].
    [round_kernel comb ~fold:(r, dst) tabs] is the fused pass of an in-RAM
    round after the first: it folds [tabs] (length [2m], [m >= 2] even)
    with [r] into [dst] ([dst.(j).(b) <- tabs.(j).(b) + r * (tabs.(j).(b +
    m) - tabs.(j).(b))], length [m]; [dst.(j)] may be the first half of
    [tabs.(j)] itself) and returns the round polynomial over [dst]. Chunks
    of 1024 pairs run on the pool; the result is the same for every
    domain count and kernel tier.
    @raise Invalid_argument if the table count does not match the
    combiner (as for {!prove}), the lengths differ or are not as above, or
    [dst] does not hold one half-length vector per table. *)
