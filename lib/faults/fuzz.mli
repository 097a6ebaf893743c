(** The fault-injection harness: feed corrupted proofs to a verifier and
    assert it rejects every one of them with a structured error — never an
    exception, never an accept.

    A {!target} packages one backend's honest proof bytes, its
    bytes-to-verdict verification closure, and a list of named structural
    mutators (typed corruptions built by {!Targets}). The harness mutates at
    two layers: raw wire bytes through {!Mutate}, and decoded structure
    through the target's own mutators. Every mutant is guaranteed to differ
    from the honest bytes, and the decoders are injective (canonical field
    encodings, fixed framing, trailing-byte rejection), so a verdict of
    {!Accepted} is a soundness alarm and {!Raised} a robustness alarm —
    {!report} fails loudly on either.

    Sweeps are deterministic: (seed, mutant index) replays the exact mutant,
    and a pinned {!replay_corpus} corpus replays historical crashers in
    [dune runtest]. *)

type target = {
  name : string;  (** backend label ("orion", "fri") *)
  honest : bytes;  (** a valid serialized proof for a fixed statement *)
  verify : bytes -> (unit, Zk_pcs.Verify_error.t) result;
      (** decode + full verification against the fixed statement *)
  structured : (string * (Zk_util.Rng.t -> bytes option)) list;
      (** named typed mutators: corrupt the decoded structure and
          re-serialize; [None] when inapplicable to this proof shape *)
}

type verdict =
  | Rejected of Zk_pcs.Verify_error.category  (** the only healthy outcome *)
  | Accepted  (** soundness alarm: a corrupted proof verified *)
  | Raised of string  (** robustness alarm: the verifier threw an exception *)

val run_bytes : target -> bytes -> verdict
(** Verify one blob, catching any exception into [Raised]. *)

type report = {
  target_name : string;
  byte_mutants : int;
  structured_mutants : int;
  rejected : int;
  accepted : int;  (** must be 0 *)
  raised : int;  (** must be 0 *)
  honest_ok : bool;  (** the unmutated proof still verifies *)
  by_category : (string * int) list;
      (** rejections bucketed by {!Zk_pcs.Verify_error.category_name}, in
          taxonomy order (all categories present, zero counts included) *)
  by_op : (string * int) list;
      (** rejections bucketed by {!Mutate.op_name} for byte mutants, then
          by mutator name for structured ones (every operator and mutator
          present, zero counts included) *)
  alarms : string list;
      (** human description of each accepted/raised mutant, with the seed
          and index needed to replay it (capped at 20) *)
}

val clean : report -> bool
(** No accepts, no raises, honest proof verified. *)

val sweep : ?seed:int64 -> byte_mutants:int -> structured_rounds:int -> target -> report
(** Run [byte_mutants] random byte-level mutants plus [structured_rounds]
    passes over the target's structural mutators (one mutant per mutator
    per pass), all drawn from a single RNG stream seeded with [seed]
    (default 1). *)

val pp_report : Format.formatter -> report -> unit
(** Multi-line human summary (bucket table plus alarms). *)

val replay_corpus : target -> dir:string -> (string * verdict) list
(** Run every [*.hex] file under [dir] (sorted) through the target. An
    entry is lines of hex bytes, ['#'] comments and blank lines ignored,
    whitespace between hex pairs free-form.
    @raise Failure on a byte that is not two hex digits. *)
