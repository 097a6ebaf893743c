(** A multilinear PCS built from the {!Fri} low-degree-test machinery — the
    NTT-heavy end of the PCS design space ("When Proofs Meet Hardware"
    contrasts it with sumcheck-friendly codes like Orion's), wired in as
    the second {!Zk_pcs.Pcs.S} backend so the Spartan functor exercises
    both.

    [commit] maps the hypercube evaluation table to univariate monomial
    coefficients (Mobius transform + bit reversal, arranging variable [j]
    at monomial bit [j - 1]), low-degree-extends them with an NTT at rate
    [2^-blowup_log2], and Merkle-commits the codeword. [open_at] proves
    [v = sum_b f(b) eq(q, b)] with a basefold-style argument: a degree-2
    sumcheck over [f] and [eq(q)] ({!Zk_sumcheck.Sumcheck.prove} and
    [verify] under this backend's framing, which works out [v] as the
    claim) whose per-round challenge also even/odd-folds the codeword, so after the last round the codeword is
    the constant [f~(r)] and spot checks against the committed layers are
    all that is left to verify.

    The prover keeps the table, the codeword and every fold layer as
    {!Nocap_vec.Spill.t} vectors and walks them in blocks: with no engine
    stream budget they wrap RAM (the table is the caller's, borrowed) and
    each layer is one block; under a budget they are spill files read and
    written in [Spill.block_rows] blocks.
    Proof bytes are the same either way. [open_at] checks the ambient
    cancel token at its block boundaries and frees every spill file it
    made on any exit.

    Unlike Orion's zk configuration this backend draws no hiding masks
    (the [rng] passed to [commit] is unused): openings leak information
    about the polynomial beyond the evaluation, so it is a performance /
    design-space backend, not a zero-knowledge one. *)

type params = Fri.params = {
  blowup_log2 : int; (** rate = 2^-blowup_log2; 2 by default *)
  num_queries : int; (** fold spot-checks; 30 by default *)
}
(** {!Fri}'s; [default_params] is {!Fri.default_params}. *)

type param_error = Blowup_out_of_range of int | Queries_not_positive of int

type commitment = { root : Zk_merkle.Merkle.digest; num_vars : int }

type eval_proof = {
  sumcheck : Zk_sumcheck.Sumcheck.proof;
      (** one degree-2 round polynomial (3 evaluations) per variable *)
  layer_roots : Zk_merkle.Merkle.digest array;
      (** roots of the folded codeword layers 1..num_vars *)
  final_constant : Zk_field.Gf.t;
  queries : Fri.queries;
      (** the spot checks, opened by {!Fri.open_queries} and checked by
          {!Fri.check_queries} on the plain subgroup (shift one): per
          query, its layer-0 position and [num_vars + 1] opened layers *)
}
(** Flat, like {!Orion.eval_proof}: no boxed element and no digest string
    between the wire and the verdict. Transparent like {!Orion_pcs}'s types,
    so typed fault injection (and any other structural consumer) can build
    corrupted proofs field-by-field instead of patching wire bytes blind.
    The wire form is this module's: per query, position, layer count, then
    per layer the pair, the path length and the path's raw digests. *)

val num_queries : eval_proof -> int

val monomial_coeffs_into : Nocap_vec.Fv.t -> Nocap_vec.Fv.t -> unit
(** [monomial_coeffs_into table dst] writes the univariate coefficients of
    the multilinear [table] (length [2^l]) into [dst.(0 .. 2^l - 1)],
    monomial bit [j - 1] carrying variable [j] (the MSB of the evaluation
    index is variable 1), so {!Fri.fold_layer} by a sumcheck challenge
    binds the same variable the sumcheck does. The commit's layer-0
    codeword is the NTT of these coefficients, zero-padded.
    @raise Invalid_argument unless the table's length is a power of two
    and [dst] holds at least that many elements. *)

val validate_commitment :
  params -> commitment -> (unit, Zk_pcs.Verify_error.t) result
(** The checks [verify] runs first on a wire commitment: valid params, a
    32-byte root, and a domain of at most 2^32 points. *)

include
  Zk_pcs.Pcs.S
    with type params := params
     and type param_error := param_error
     and type commitment := commitment
     and type eval_proof := eval_proof
