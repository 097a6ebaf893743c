(** Rank-1 constraint systems (Sec. II-B).

    An instance is three square sparse matrices A, B, C of side [2^log_size]
    such that the circuit is satisfied iff [(Az) o (Bz) = Cz] (elementwise),
    where [z] is the wire-value vector.

    Layout (Spartan's convention): [z = w || io], each half of length
    [2^(log_size - 1)]; [io.(0)] is the constant 1, followed by the public
    inputs, zero-padded. The split lets the multilinear extension of [z]
    decompose as [(1 - y_1) * w~(rest) + y_1 * io~(rest)], so the verifier
    only needs a commitment opening for the witness half.

    An instance is preprocessed once: {!make} is its only constructor, and
    it takes ownership of the three matrices. Everything that depends only
    on the circuit — the transposes ([columns]) and the binding digest
    ([digest]) — is computed there and never again, so every proof and
    every verification on one circuit shares it. The matrices are
    frozen after [make]: their arrays are mutable, but nothing may write
    them, or [columns] and [digest] would describe a different circuit
    from the one the prover and verifier read. Nothing in this library
    does; a changed circuit (a lint mutant, a padded matrix) is a new
    [make]. *)

type instance = private {
  a : Sparse.t;
  b : Sparse.t;
  c : Sparse.t;
  columns : Sparse.t array;
      (* A^T, B^T, C^T ({!Sparse.transpose}), built once by [make] for the
         prover's M~ gather *)
  digest : Zk_hash.Keccak.digest;
      (* SHA3-256 of the matrices, hashed once by [make]; see {!make} *)
  log_size : int; (* matrices are 2^log_size x 2^log_size, >= 1 *)
  num_constraints : int; (* real constraint rows *)
  num_witness : int; (* live entries of w *)
  num_io : int; (* live entries of io, including the constant 1 *)
}

type assignment = { w : Zk_field.Gf.t array; io : Zk_field.Gf.t array }
(** Both halves have length [2^(log_size - 1)]; [io.(0) = 1]. *)

val make :
  a:Sparse.t ->
  b:Sparse.t ->
  c:Sparse.t ->
  log_size:int ->
  num_constraints:int ->
  num_witness:int ->
  num_io:int ->
  instance
(** Validates dimensions, transposes the matrices into [columns] and
    hashes [digest], in O(nnz + 2^log_size). The matrices must already be
    [2^log_size] square, and the instance owns them from here on (see the
    frozen-after-[make] contract above).

    [digest] is the SHA3-256 of ["r1cs:<log_size>:"] followed, for A, B
    and C in turn, by the matrix tag (['A'], ['B'], ['C']) and one
    (row, col, value) triple of little-endian int64s per nonzero in
    row-major order. Both Spartan parties absorb it first into their
    transcripts, so this layout is part of the proof format. It is
    computed eagerly, not on first use, so domains sharing one instance
    never race to fill it. *)

val size : instance -> int
(** [2^log_size]. *)

val z_fv : instance -> assignment -> Nocap_vec.Fv.t
(** The full wire vector [w || io] as a fresh flat vector, copied straight
    out of the assignment's halves.
    @raise Invalid_argument unless both halves have length
    [2^(log_size - 1)] and [io.(0) = 1]. *)

val satisfied : instance -> assignment -> bool
(** Check [(Az) o (Bz) = Cz].
    @raise Invalid_argument on an assignment {!z_fv} rejects. *)

val public_io : instance -> assignment -> Zk_field.Gf.t array
(** The live io prefix (constant 1 and public inputs) — what the verifier
    sees. *)

val nnz : instance -> int
(** Total nonzeros across A, B, C. *)
