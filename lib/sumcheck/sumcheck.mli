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
    - [Vector { degree; mults; f }]: any other combiner in vector form.
      [f vals out] writes [out.(i) <- comb(vals.(0).(i), ..., vals.(k-1).(i))]
      for every [i], where all vectors have the same (chunk) length, at
      most 1024. It is built from the elementwise [Fv] kernels, which
      dispatch to the native layer. [f] must not write [vals] (they may be
      views of the tables themselves); it may use [out] as scratch and
      take more from [Nocap_vec.Arena.alloc], which the prover's
      enclosing frame reclaims.

    A round is one pass over the tables. Per chunk of pairs it reads each
    table's lo/hi halves once; in RAM, every round after the first folds
    them with the previous challenge in the same pass ([lo + r * (hi -
    lo)] on the previous generation's quarters) and writes each half
    once. [Eq_abc] and [Product] run the fused native kernel
    ([Nocap_native.Native.sumcheck_round]: AVX2 or scalar C), which
    walks each [t >= 2] add-only
    ([hi + (t - 1) * (hi - lo)]) and sums g(0..degree) with no scratch.
    A [Vector] combiner evaluates each [t >= 2] with one
    {!Nocap_vec.Fv.lerp_into} per table into arena scratch, then [f],
    then [Fv.sum]. *)

type comb =
  | Eq_abc
  | Product
  | Vector of { degree : int; mults : int; f : Nocap_vec.Fv.t array -> Nocap_vec.Fv.t -> unit }

val degree : comb -> int
(** 3 for [Eq_abc], 2 for [Product], a [Vector]'s own degree. *)

val comb_mults : comb -> int
(** Field multiplications per point: 2 for [Eq_abc], 1 for [Product], a
    [Vector]'s [mults]. *)

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
    so in [after_round]. *)

val default_framing : framing
(** The prelude absorbs [sumcheck/num_vars], [sumcheck/degree] and
    [sumcheck/claim]; rounds use [sumcheck/round] and [sumcheck/challenge];
    [after_round] does nothing. *)

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
    [result.claim]. [framing]'s prelude (default {!default_framing})
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
    @raise Invalid_argument if [tables] is empty, their lengths differ or
    are not a power of two, their count does not match [Eq_abc] (4) or
    [Product] (2), a [Vector]'s degree is below 1, or
    [budget_bytes <= 0]. *)

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
(** Replays the rounds under [framing] (default {!default_framing}),
    checking [g_i(0) + g_i(1)] against the running claim. The caller must
    still check [result.value] against oracle evaluations of
    the tables at [result.point]. Total on arbitrary proofs: a wrong round
    count or round-polynomial degree is [Shape], a failed running-claim
    check is [Sumcheck_mismatch], and [degree < 1] is [Params] (a degree-0
    round polynomial could not even be length-checked against [g(1)]). *)

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
    @raise Invalid_argument if the table count does not match [Eq_abc]
    (4) or [Product] (2), the lengths differ or are not as above, or
    [dst] does not hold one half-length vector per table. *)
