(** Sumcheck with verifier challenges drawn from GF(p^2).

    The alternative to Sec. VII-A's 3x repetition: one protocol run whose
    per-round soundness error is ~d/p^2 instead of ~d/p, at the price of
    extension-field arithmetic once the first challenge binds (3 base
    multiplications per extension multiplication). The claimed sum and the
    tables live in the base field; the reduced claim and evaluation point are
    extension elements. *)

module Gf = Zk_field.Gf
module Gf2 = Zk_field.Gf2

type proof = { round_polys : Gf2.t array array }

type prover_result = {
  proof : proof;
  challenges : Gf2.t array;
  final_values : Gf2.t array;
  base_mults_equivalent : int;
      (** prover cost in base-field multiplications (3 per extension mult),
          for the repetition-vs-extension ablation *)
}

val prove :
  Zk_hash.Transcript.t ->
  degree:int ->
  tables:Gf.t array array ->
  comb:(Gf2.t array -> Gf2.t) ->
  comb_mults:int ->
  claim:Gf.t ->
  prover_result

type verifier_result = { point : Gf2.t array; value : Gf2.t }

val verify :
  Zk_hash.Transcript.t ->
  degree:int ->
  num_vars:int ->
  claim:Gf.t ->
  proof ->
  (verifier_result, string) result
(** Replays the rounds, checking [g_i(0) + g_i(1)] against the running
    claim and reducing it to [g_i(r_i)] with {!eval_round_poly}. A
    [degree] below 1 is an [Error]. *)

val eval_round_poly : Gf2.t array -> Gf2.t -> Gf2.t
(** [eval_round_poly g r] is the value at the extension point [r] of the
    polynomial with values [g.(i)] at the base-field nodes [i = 0..d]:
    {!Sumcheck.eval_round_poly}'s barycentric form with the products in
    GF(p^2), scaled ({!Zk_field.Gf2.mul_base}) by the base-field weights
    {!Sumcheck.round_weights}. No inversion. *)

val eval_mle_ext : Gf.t array -> Gf2.t array -> Gf2.t
(** Evaluate a base-field table's MLE at an extension point (the oracle check
    the caller performs on [final_values]). *)
