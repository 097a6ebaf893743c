(** The Orion polynomial commitment scheme in its accelerator-friendly
    configuration (Sec. II, Sec. VII-A): Reed-Solomon codes at blowup 4
    (the Shockwave substitution), 128-row matrices, 189 column queries, and
    4 random-combination proximity tests.

    To commit to a multilinear polynomial with [2^L] coefficients, the prover
    arranges the coefficient table into a [rows x cols] matrix, encodes every
    row, hashes each codeword column into a Merkle leaf, and publishes the
    root. An evaluation proof at point [q = (q_row, q_col)] sends the
    combination [u = eq(q_row)^T W] plus masked random combinations for
    proximity, and answers [189] column queries with Merkle openings; the
    verifier re-encodes the combinations and spot-checks them column-wise, so
    its work is [O(cols log cols + queries * rows)] instead of [O(2^L)].

    When [zk] is set, each proximity combination is additively masked by a
    committed random row, hiding the witness rows (the paper's masking
    polynomial, Sec. VII-A). The evaluation combination itself follows the
    non-hiding Brakedown/Shockwave variant — full hiding needs Orion's
    recursive inner proof, which this reproduction substitutes away (see
    DESIGN.md). *)

module Gf = Zk_field.Gf

type params = {
  rows : int; (** data rows in the matrix; 128 in the paper *)
  code : Zk_ecc.Linear_code.t;
  proximity_count : int; (** random combinations for the proximity test; 4 *)
  zk : bool;
}

val default_params : params
(** rows = 128, Reed-Solomon blowup 4, 4 proximity vectors, zk masking on. *)

type param_error =
  | Rows_not_positive of int
  | Rows_not_power_of_two of int
  | Proximity_count_not_positive of int
  | Code_rate_insane of { code : string; blowup : int }

val validate_params : params -> (unit, param_error) result
(** Structural sanity of a parameter set: [rows] a positive power of two,
    at least one proximity combination, a code blowup in [2, 64]. Checked
    by {!commit} before any work happens, so a bad configuration fails at
    construction with a structured error instead of deep inside the
    encoder. *)

val param_error_to_string : param_error -> string

type commitment = {
  root : Zk_merkle.Merkle.digest;
  num_vars : int;
  mat_rows : int; (** data rows actually used (min rows (2^num_vars)) *)
  mat_cols : int;
}

type committed
(** Prover-side state: the un-encoded coefficient rows and mask rows, their
    encoded matrix (each in RAM, or in a spill file under a stream budget)
    and the Merkle tree. Openings read the committed codeword; they encode
    nothing. *)

type eval_proof = {
  u : Nocap_vec.Fv.t; (** eq(q_row)^T W, length mat_cols *)
  proximity : Nocap_vec.Fv.t array; (** masked random row-combinations *)
  col_index : int array; (** codeword position of each opened column *)
  col_height : int array; (** elements in each opened column *)
  col_values : Nocap_vec.Fv.t;
      (** the opened columns, concatenated in opening order (length
          [sum col_height]) *)
  path_len : int array; (** digests in each column's authentication path *)
  paths : Nocap_vec.Fv.t;
      (** the authentication paths, concatenated in opening order, each
          bottom-up, 4 lanes per digest ({!Zk_hash.Keccak.digest_at}'s
          layout; length [4 * sum path_len]) *)
}
(** An opening, flat from the wire to the verdict: no boxed element and no
    digest string. The per-opening arrays have one entry per opened column;
    heights and path lengths are kept per column, so a ragged opening
    decodes and is rejected with the same error as any other. *)

val num_openings : eval_proof -> int
(** Number of opened columns. *)

val commit :
  ?engine:Zk_pcs.Engine.t -> params -> Zk_util.Rng.t -> Gf.t array -> committed * commitment
(** [commit params rng table] commits to the multilinear polynomial whose
    evaluation table is [table] (power-of-two length): {!commit_stream}
    over the table, with the engine's stream budget
    ({!Zk_pcs.Engine.stream_budget_bytes}). [rng] draws the zk mask rows
    (unused when [params.zk] is false); the draw order is fixed, so the
    commitment does not depend on the engine, and the commitment and all
    subsequent proof bytes are the same for every budget.
    @raise Invalid_argument if {!validate_params} rejects [params]. *)

val commit_stream :
  ?budget_bytes:int ->
  params ->
  Zk_util.Rng.t ->
  num_vars:int ->
  read:(pos:int -> Nocap_vec.Fv.t -> unit) ->
  committed * commitment
(** The commit over a flat-element producer: [read ~pos dst] fills [dst]
    with elements [pos, pos + length dst) of the (row-major) table, so
    callers can commit to data that never exists in RAM at once (chunked
    witness generation, generators). Rows are encoded once and
    column-hashed one row block at a time; the encoded blocks are kept for
    the openings. With no [budget_bytes] the block spans every row and the
    rows and the codeword stay in RAM; under a budget, blocks are
    budget-sized and both spill to temp files, so peak residency is one
    row block of each plus the column-sponge bank and the Merkle tree. On
    cancellation or an I/O fault both spill files are released before the
    exception propagates. Byte-identical for every budget. *)

val free_committed : committed -> unit
(** Release the spill files behind a commitment made under a budget (no-op
    for RAM-backed ones). Idempotent; also run by a GC finalizer as a
    backstop. *)

val prove_eval :
  ?engine:Zk_pcs.Engine.t ->
  params ->
  committed ->
  Zk_hash.Transcript.t ->
  Gf.t array ->
  Gf.t * eval_proof
(** [prove_eval params cm transcript point] opens the polynomial at [point]
    (length [num_vars]), returning the value and the proof. The commitment
    must have been absorbed by the caller via {!absorb_commitment}. Row
    combinations read the stored rows block by block; column openings read
    the queried positions from the stored codeword block by block. [engine]
    is accepted for the {!Zk_pcs.Pcs.S} signature and unused. Checks the
    ambient cancel token once per row block.
    @raise Nocap_parallel.Pool.Cancel.Cancelled if it is cancelled. *)

val validate_commitment : params -> commitment -> (unit, Zk_pcs.Verify_error.t) result
(** Pin an untrusted commitment to the matrix layout [commit] would have
    produced under these params: digest length, [num_vars] within
    [0, 32] (paper scale tops out near 2^26; the bound keeps every size
    the verifier derives from an attacker-controlled commitment in
    range), and [mat_rows]/[mat_cols] equal to the derived
    layout. Run by {!verify_eval} before any size is trusted. *)

val verify_eval :
  ?engine:Zk_pcs.Engine.t ->
  params ->
  commitment ->
  Zk_hash.Transcript.t ->
  Gf.t array ->
  Gf.t ->
  eval_proof ->
  (unit, Zk_pcs.Verify_error.t) result
(** Verifies that the committed polynomial evaluates to the claimed value at
    the point. The transcript must mirror the prover's. Total on arbitrary
    commitments and proofs (e.g. decoded from hostile bytes): every failure
    is a categorized [Error], never an exception.

    The column checks run over all openings at once: index and height of
    every column, one leaf hash batch over the transposed well-shaped
    columns, one node-hash batch per Merkle level, and the u and proximity
    combinations as one axpy per data row. The error reported is the one a
    column-by-column check gives: the first failing column in opening order
    with its first failing check (index, height, path, u, proximity i). *)

val absorb_commitment : Zk_hash.Transcript.t -> commitment -> unit

val proof_size_bytes : params -> commitment -> eval_proof -> int
(** Serialized size: 8 bytes per field element, 32 per digest, 8 per column
    index — the proof-size accounting behind Table III. *)

val split_point : commitment -> Gf.t array -> Gf.t array * Gf.t array
(** Split an evaluation point into (row part, column part) per the matrix
    layout. *)
