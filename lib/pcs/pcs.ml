(** The polynomial-commitment-scheme interface the Spartan prover is
    functorized over.

    A backend packages a multilinear PCS over Goldilocks-64: commit to an
    evaluation table of size [2^L], later open it at a point in [Gf^L]
    against a Fiat-Shamir transcript, and let a verifier check the claimed
    value from the commitment alone. Orion (Reed-Solomon + Merkle,
    sumcheck-friendly) and FRI (NTT-heavy, basefold-style) implement it —
    the two ends of the hardware design space the paper's related work
    contrasts.

    Contract highlights, beyond the types:
    - [commit]/[open_at]/[verify] take an optional {!Engine.t}; a backend
      must produce identical bytes for every engine. [commit] reads its
      stream budget, which only sizes blocks; [open_at] and [verify]
      ignore it, and keep the argument so wrappers (a timing functor, say)
      forward one signature. Hiding masks come from [commit]'s [rng],
      drawn in a fixed order.
    - The transcript discipline is caller-driven: the caller absorbs the
      commitment ({!S.absorb_commitment}); [open_at] and [verify] then
      absorb/draw in mirrored order, so one transcript can interleave
      several protocol phases.
    - [write_*]/[read_*] are total byte forms built on {!Codec}; [read_*]
      must never raise on untrusted input.
    - [tag] is the backend's wire identity, embedded in serialized proof
      headers; it must be unique across backends and never reused. *)

module Gf = Zk_field.Gf

(** Uniform per-proof accounting, comparable across backends (feeds the
    backend bench and the paper's proof-size tables). *)
type stats = {
  backend : string;
  num_vars : int;
  commitment_bytes : int;
  proof_bytes : int;
  queries : int;  (** opened positions (columns for Orion, FRI queries) *)
}

module type S = sig
  val name : string
  (** Short lowercase identifier ("orion", "fri"); also the CLI/bench
      selector and the transcript domain-separation suffix. *)

  val tag : char
  (** Wire tag for serialized proof headers. Unique per backend. *)

  type params

  val default_params : params
  (** Paper-scale configuration. *)

  val test_params : params
  (** Small, fast configuration for unit tests. *)

  type param_error

  val validate_params : params -> (unit, param_error) result
  val param_error_to_string : param_error -> string

  type committed
  (** Prover-side opening state; never serialized. *)

  type commitment

  type eval_proof

  val commit :
    ?engine:Engine.t -> params -> Zk_util.Rng.t -> Gf.t array -> committed * commitment
  (** Commit to the multilinear polynomial whose evaluation table is the
      array (power-of-two length). [rng] draws hiding masks, if the backend
      has any; it must be consumed in a deterministic order.
      @raise Invalid_argument on invalid [params] (see {!validate_params})
      or a non-power-of-two table. *)

  val absorb_commitment : Zk_hash.Transcript.t -> commitment -> unit

  val commitment_num_vars : commitment -> int

  val open_at :
    ?engine:Engine.t ->
    params ->
    committed ->
    Zk_hash.Transcript.t ->
    Gf.t array ->
    Gf.t * eval_proof
  (** Open at a point of length [num_vars], returning the evaluation and
      its proof. The commitment must already have been absorbed. *)

  val free_committed : committed -> unit
  (** Release out-of-core resources (spill files) held by the prover
      state; a no-op for in-RAM state.

      {b Lifecycle contract.} A [committed] moves through
      [commit] → zero or more [open_at] → [free_committed]; after the
      free, any further [open_at] on it raises. [free_committed] is
      {e idempotent} — double frees (and frees racing a GC finalizer) are
      safe no-ops, which is what lets a retrying caller unconditionally
      free a failed attempt's state in its cleanup path and then
      re-[commit] from scratch: retry never reuses a [committed] across
      attempts. Callers that stop early (cancellation, a worker crash, an
      I/O fault mid-opening) must still run [free_committed] on the way
      out — provers wrap the commit→open span in [Fun.protect] — and
      backends must also attach a GC-finalizer backstop so state leaked
      past all of that cannot exhaust file descriptors. *)

  val verify :
    ?engine:Engine.t ->
    params ->
    commitment ->
    Zk_hash.Transcript.t ->
    Gf.t array ->
    Gf.t ->
    eval_proof ->
    (unit, Verify_error.t) result
  (** Check a claimed evaluation. Must mirror [open_at]'s transcript
      traffic exactly, including on the error paths it can reach. The
      commitment and proof must be treated as attacker-controlled: any
      shape, including one produced by [read_*] on hostile bytes, yields a
      categorized [Error] — never an exception. *)

  val proof_size_bytes : params -> commitment -> eval_proof -> int

  val stats : params -> commitment -> eval_proof -> stats

  val write_commitment : Buffer.t -> commitment -> unit
  val read_commitment : Codec.reader -> (commitment, Verify_error.t) result
  val write_eval_proof : Buffer.t -> eval_proof -> unit
  val read_eval_proof : Codec.reader -> (eval_proof, Verify_error.t) result
end
