(** The grand-product argument (Thaler'13 / Quarks): prove that the product
    of a committed vector's entries equals a claimed value, in a logarithmic
    number of sumcheck rounds.

    This is the protocol core of Spartan's SPARK sparse-matrix commitment
    (the component whose multiset-hash instantiations the paper runs 4 times,
    Sec. VII-A): offline memory checking reduces to comparing grand products
    of the multiset fingerprints, and each grand product is proven with this
    argument.

    Construction: a binary product tree [P_0 = v], [P_{i+1}(y) =
    P_i(y,0) * P_i(y,1)]; each layer is tied to the next by the sumcheck
    [P_{i+1}(r) = sum_y eq(r,y) * P_i(y,0) * P_i(y,1)], whose end reduces to
    two evaluations of [P_i] differing only in the last variable — a degree-1
    restriction the verifier collapses with one more challenge. The chain
    bottoms out at a single evaluation claim on [v] itself, which the caller
    discharges against its polynomial commitment. *)

module Gf = Zk_field.Gf

type proof = {
  layer_claims : (Gf.t * Gf.t) array;
      (** per layer, the two half-evaluations (p0, p1) the sumcheck reduces
          to *)
  sumchecks : Zk_sumcheck.Sumcheck.proof array;
}

type reduced_claim = {
  point : Gf.t array; (** evaluation point on the input vector's MLE *)
  value : Gf.t;
}

val prove :
  Zk_hash.Transcript.t -> Gf.t array -> Gf.t * proof * reduced_claim
(** [prove t v] for a power-of-two vector [v] returns the product, the proof,
    and the final claim [v~(point) = value] the caller must still tie to a
    commitment of [v]. *)

val verify :
  Zk_hash.Transcript.t ->
  num_vars:int ->
  product:Gf.t ->
  proof ->
  (reduced_claim, Zk_pcs.Verify_error.t) result
(** Replays the layer chain; on success returns the reduced claim for the
    caller's commitment opening. Total on arbitrary proofs. *)
