(** Batched proving of many assignments to the {e same} circuit.

    The Litmus workload (Sec. VII-B) proves many structurally identical
    transaction batches; proving them together amortizes almost everything
    that is not per-witness: one challenge schedule, one pair of sumchecks
    (the first runs over a random linear combination
    [eq(tau,x) * sum_i rho_i (Az_i Bz_i - Cz_i)], still degree 3; the second
    over [M(y) * sum_i sigma_i z_i(y)], whose M-table — the expensive
    transpose-SpMV — is built once instead of [k] times), and one O(nnz)
    matrix-MLE evaluation on the verifier. Only the Orion commitment and
    opening remain per-instance.

    Soundness: a batch proof convinces the verifier that {e every} assignment
    satisfies the circuit — if any single one does not, the random
    combination is nonzero with overwhelming probability and the sumcheck
    fails. *)

module Gf = Zk_field.Gf

type proof = {
  commitments : Zk_orion.Orion.commitment array; (** one per instance *)
  reps : rep_proof array;
}

and rep_proof = {
  sc1 : Zk_sumcheck.Sumcheck.proof;
  claims_abc : (Gf.t * Gf.t * Gf.t) array; (** (va, vb, vc) per instance *)
  sc2 : Zk_sumcheck.Sumcheck.proof;
  vws : Gf.t array; (** w_i~(ry_rest) per instance *)
  w_opens : Zk_orion.Orion.eval_proof array;
}

val prove :
  ?engine:Zk_pcs.Engine.t ->
  ?rng:Zk_util.Rng.t ->
  Spartan.params ->
  Zk_r1cs.R1cs.instance ->
  Zk_r1cs.R1cs.assignment array ->
  proof
(** [rng] seeds every instance's zk mask rows (default: a fixed seed).
    @raise Invalid_argument if the batch is empty or any assignment fails to
    satisfy the instance. *)

val verify :
  ?engine:Zk_pcs.Engine.t ->
  Spartan.params ->
  Zk_r1cs.R1cs.instance ->
  ios:Gf.t array array ->
  proof ->
  (unit, Zk_pcs.Verify_error.t) result
(** [ios.(i)] is instance [i]'s live public io
    ({!Zk_r1cs.R1cs.public_io}). Total on arbitrary proofs: every failure
    is a categorized [Error], never an exception. *)

val proof_size_bytes : Spartan.params -> proof -> int
