(** The Spartan zk-SNARK — the scheme NoCap accelerates (Sec. II-A, Sec. V) —
    functorized over the polynomial commitment backend.

    Pipeline, following Fig. 2 and Fig. 4:

    + the witness half of the wire vector is committed with the PCS backend
      [P] (Orion's Reed-Solomon + Merkle scheme by default);
    + sumcheck #1 proves [sum_x eq(tau, x) * (Az(x) * Bz(x) - Cz(x)) = 0],
      reducing R1CS satisfiability to evaluation claims on Az~, Bz~, Cz~ at a
      random point [rx];
    + sumcheck #2 proves the random linear combination
      [sum_y (rA * A(rx,y) + rB * B(rx,y) + rC * C(rx,y)) * z(y)], reducing
      to one evaluation claim on [z~] at [ry];
    + [z~(ry)] splits into a public-input part the verifier computes itself
      and a witness part opened through the PCS.

    The verifier evaluates the matrix MLEs [A~(rx,ry)], [B~], [C~] directly
    from the sparse matrices (O(nnz) — Spartan's NIZK variant without the
    SPARK preprocessing commitment; see DESIGN.md). Soundness over the
    Goldilocks-64 field is amplified by running the IOP [repetitions] times
    (the paper uses 3, Sec. VII-A).

    {!Make} builds the SNARK over any {!Zk_pcs.Pcs.S} backend; the toplevel
    of this module is [Make (Zk_orion.Orion_pcs)], so existing call sites
    keep working and Orion-backend proof bytes are unchanged. *)

module Gf = Zk_field.Gf

(** Signature of an instantiated Spartan prover/verifier. *)
module type S = sig
  module P : Zk_pcs.Pcs.S
  (** The polynomial commitment backend this instance is built over. *)

  type params = {
    pcs : P.params;
    repetitions : int; (** 3 in the paper's 128-bit configuration *)
  }

  val default_params : params
  (** Backend defaults, 3 repetitions. *)

  val test_params : params
  (** 1 repetition, small backend parameters: fast configuration for unit
      tests. *)

  type rep_proof = {
    sc1 : Zk_sumcheck.Sumcheck.proof;
    va : Gf.t; (** Az~(rx) *)
    vb : Gf.t; (** Bz~(rx) *)
    vc : Gf.t; (** Cz~(rx) *)
    sc2 : Zk_sumcheck.Sumcheck.proof;
    vw : Gf.t; (** w~(ry minus the top variable) *)
    w_open : P.eval_proof;
  }

  type proof = { w_commitment : P.commitment; reps : rep_proof array }

  type prover_stats = {
    sumcheck_mults : int;
    sumcheck_adds : int;
    spmv_mults : int;
    transcript_hashes : int;
  }

  val prove :
    ?engine:Zk_pcs.Engine.t ->
    ?rng:Zk_util.Rng.t ->
    params ->
    Zk_r1cs.R1cs.instance ->
    Zk_r1cs.R1cs.assignment ->
    proof * prover_stats
  (** Produce a proof that the instance is satisfied by a witness whose public
      io the verifier will see. [rng] seeds the zk mask rows (default: a
      fixed seed, so default proofs are bit-stable); [engine] supplies the
      prover memory budget — proof bytes are identical for every engine.
      The returned stats are the proof's operation counts.
      @raise Invalid_argument if the assignment does not satisfy the
      instance, or if [params.pcs] is invalid. *)

  val verify :
    ?engine:Zk_pcs.Engine.t ->
    params ->
    Zk_r1cs.R1cs.instance ->
    io:Gf.t array ->
    proof ->
    (unit, Zk_pcs.Verify_error.t) result
  (** [verify params instance ~io proof]: [io] is the live public io prefix
      (constant 1 followed by public inputs), as returned by
      {!Zk_r1cs.R1cs.public_io}. The instance, params, and io are trusted
      (the verifier's own statement); the proof is not — any proof value,
      including one decoded from hostile bytes, yields a categorized
      [Error], never an exception. *)

  val proof_size_bytes : params -> proof -> int
  (** Serialized proof size (8 B per field element, 32 B per digest). *)

  val instance_digest : Zk_r1cs.R1cs.instance -> Zk_hash.Keccak.digest
  (** Binding digest of the constraint matrices ({!Zk_r1cs.R1cs.instance}'s
      [digest], hashed once by {!Zk_r1cs.R1cs.make}); absorbed into the
      transcript by both parties so proofs are tied to a specific circuit. *)

  val magic : string
  (** 8-byte wire magic ["NCAP2\x00\x00\x00"]; followed by the backend's
      one-byte tag. *)

  val proof_to_bytes : proof -> bytes
  (** Canonical byte format: magic, backend tag byte, then little-endian u64
      field elements and lengths, raw 32-byte digests, length-prefixed
      arrays. *)

  val proof_of_bytes : bytes -> (proof, Zk_pcs.Verify_error.t) result
  (** Total decoding: malformed input yields a categorized [Error], never an
      exception; every length field is bounded against the remaining input,
      and trailing bytes after a complete proof are rejected. A blob written
      by a different backend (or a legacy untagged NCAP1 blob) is
      [Bad_header], naming the backend/tag in the detail. *)

  val serialized_size : proof -> int
  (** Exact byte length [proof_to_bytes] produces (payload plus framing). *)
end

module Make (P0 : Zk_pcs.Pcs.S) : S with module P = P0
(** Build the SNARK over a PCS backend. The Fiat-Shamir transcript label is
    ["spartan-" ^ P0.name], so distinct backends are domain-separated. *)

include S with module P = Zk_orion.Orion_pcs
(** The default instance, over Orion — byte-compatible with the pre-functor
    prover for every engine/domain configuration. *)

val io_mle_eval : Gf.t array -> Gf.t array -> Gf.t
(** [io_mle_eval io point] is the multilinear extension of the io half of
    [z] (the live prefix [io], zero beyond it) at [point], over
    [Array.length point] variables. Only the power-of-two prefix of the eq
    table that covers [io] is built.
    @raise Invalid_argument if [io] is longer than [2^(Array.length point)]. *)

val abc_eval : Zk_r1cs.R1cs.instance -> rx:Gf.t array -> ry:Gf.t array -> r_abc:Gf.t array -> Gf.t
(** The verifier's [rA * A~(rx, ry) + rB * B~(rx, ry) + rC * C~(rx, ry)]:
    one {!Zk_r1cs.Sparse.mle_eval_split} walk per matrix against the
    {!Zk_poly.Mle.eq_split} tables of [rx] (rows) and [ry] (columns),
    [r_abc] folded into the column-hi tables. O(nnz + sqrt n). *)

(** {1 Prover tables}

    The full-length tables of {!S.prove}, shared with {!Aggregate}: each a
    fresh [Spill.t] (file-backed when [budget] is set) filled one
    {!Nocap_vec.Spill.block_rows} block of [budget] at a time by one
    {!Nocap_vec.Spill.walk}. The caller frees the result; a fill that
    raises frees what it created. The values do not depend on [budget]. *)

val fill_abc :
  budget:int option ->
  Zk_r1cs.R1cs.instance ->
  Nocap_vec.Fv.t ->
  Nocap_vec.Spill.t * Nocap_vec.Spill.t * Nocap_vec.Spill.t
(** [(Az, Bz, Cz)] for the wire vector [z] ({!Zk_r1cs.R1cs.z_fv}), each
    row block checked for [Az * Bz = Cz] before it is stored.
    @raise Invalid_argument if [z] does not satisfy the instance. *)

val fill_eq :
  tag:string -> budget:int option -> Gf.t array -> Nocap_vec.Spill.t
(** {!Zk_poly.Mle.eq_table}[ r] in a vector named [tag]
    ({!Zk_poly.Mle.eq_table_spill}). *)

val fill_m :
  budget:int option ->
  Zk_r1cs.R1cs.instance ->
  rx:Gf.t array ->
  r_abc:Gf.t array ->
  Nocap_vec.Spill.t
(** The second sumcheck's table
    [M~(y) = sum_x eq(rx, x) * (rA * A(x,y) + rB * B(x,y) + rC * C(x,y))],
    gathered column by column as rows of the instance's transposes
    ([columns], one {!Zk_r1cs.Sparse.gather_acc} each) with [eq(rx, x)]
    split by {!Zk_poly.Mle.eq_split}, as the verifier's {!abc_eval} splits
    it. O(nnz + n) for every [budget]; each window is split across the
    pool.
    @raise Invalid_argument unless [rx] has [log_size] entries and [r_abc]
    three. *)

val fill_m_grain : Zk_r1cs.R1cs.instance -> int
(** The pool grain (columns per claim) {!fill_m} splits a window with, from
    the instance's nonzeros per column. *)

val backend_of_bytes : bytes -> (string, Zk_pcs.Verify_error.t) result
(** Sniff the header of a serialized proof and report which backend wrote it
    ([Ok "orion"], [Ok "fri"], ...) without decoding the payload. Legacy
    NCAP1 blobs report ["orion"]; unknown tags and bad magics are
    [Bad_header]. *)
