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

(** {1 The combiner contract}

    The prover takes the combiner in vector form,
    [comb : Fv.t array -> Fv.t -> unit]: [comb vals out] writes
    [out.(i) <- comb(vals.(0).(i), ..., vals.(k-1).(i))] for every [i],
    where all vectors have the same (chunk) length, at most 1024. It is
    built from the elementwise [Fv] kernels ([mul_into], [sub_into],
    [add_into], ...), which dispatch to the native C/SIMD layer, so one
    call evaluates a whole chunk of points. [comb] must not write
    [vals] (they may be views of the tables themselves); it may use [out]
    as scratch and take further scratch from [Nocap_vec.Arena.alloc],
    which the prover's enclosing frame reclaims. {!spartan_comb} is an
    example.

    Each round one evaluator serves every table backing: per chunk the
    values at [t = 0] and [t = 1] are views of the lo/hi halves, each
    [t >= 2] is one {!Nocap_vec.Fv.lerp_into} per table, and [Fv.sum] of
    [out] is added into [g(t)]; the fold is [lerp_into] at the challenge. *)

val spartan_comb : Nocap_vec.Fv.t array -> Nocap_vec.Fv.t -> unit
(** Spartan's first combiner [eq * (az * bz - cz)] over the tables
    [[| eq; az; bz; cz |]] (degree 3, two multiplications per point):
    {[
      fun v out ->
        Fv.mul_into ~dst:out v.(1) v.(2);
        Fv.sub_into ~dst:out out v.(3);
        Fv.mul_into ~dst:out out v.(0)
    ]} *)

val prove :
  ?comb_mults:int ->
  ?budget_bytes:int ->
  Zk_hash.Transcript.t ->
  degree:int ->
  tables:Nocap_vec.Spill.t array ->
  comb:(Nocap_vec.Fv.t array -> Nocap_vec.Fv.t -> unit) ->
  claim:Gf.t ->
  prover_result
(** The sumcheck prover, over spillable tables. [comb] is the vector combiner
    above; [comb_mults] is the number of field multiplications it performs
    per point (default 0), so [stats] can account for them. The claim is
    absorbed into the transcript, so prover and verifier bind to it.

    With no [budget_bytes] every round runs on unboxed RAM vectors:
    RAM-backed tables are read where they are and the first fold writes
    fresh half-length vectors (file-backed ones are loaded into RAM
    first); later folds are in place. Under a budget no folded
    table generation is ever stored (recompute-halves): after j rounds the
    current table is recomputed on the fly as an eq-weighted sum of
    strided slices of the original, read in budget-sized blocks, and each
    recomputed block pair goes through the same evaluator; once the
    shrinking residual fits half the budget, it is materialized into RAM
    and the in-RAM loop finishes. Each streamed round costs one full
    pass over the original tables. The result — proof bytes, challenges,
    final values, stats — is the same for every budget and domain count.
    [tables] are read, never written; the caller frees them.
    @raise Invalid_argument if [tables] is empty, their lengths differ or
    are not a power of two, or [budget_bytes <= 0]. *)

(** {1 Round kernels}

    One round of {!prove} on RAM vectors, exposed for the kernel benches
    and the FRI opening. *)

val round_poly :
  degree:int ->
  comb:(Nocap_vec.Fv.t array -> Nocap_vec.Fv.t -> unit) ->
  comb_mults:int ->
  lo:Nocap_vec.Fv.t array ->
  hi:Nocap_vec.Fv.t array ->
  Gf.t array
(** [round_poly ~degree ~comb ~comb_mults ~lo ~hi] is the round
    polynomial [g(0..degree)] over the points whose top variable is 0 in
    [lo.(j)] and 1 in [hi.(j)] (all of one length), evaluated in 1024-point
    chunks ([comb_mults] only sizes the parallel grain). *)

val fold :
  dst:Nocap_vec.Fv.t array ->
  lo:Nocap_vec.Fv.t array ->
  hi:Nocap_vec.Fv.t array ->
  Gf.t ->
  unit
(** [fold ~dst ~lo ~hi r] binds the top variable to [r]:
    [dst.(j) <- lo.(j) + r * (hi.(j) - lo.(j))]; [dst.(j)] may be
    [lo.(j)] itself (the in-place fold). *)

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
