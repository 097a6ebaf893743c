(** Deterministic byte-level mutation operators for proof blobs.

    Each operator takes an {!Zk_util.Rng} stream and an input blob and
    produces a corrupted copy — the wire-level half of the fault-injection
    harness (structural, typed mutations live in {!Targets}). Operators are
    pure in the RNG: the same seed replays the same mutant, so every alarm
    the harness ever raises is reproducible from (seed, index) alone.

    Every operator guarantees its output differs from its input: when a
    draw happens to be a no-op (e.g. splicing a range onto itself), a bit
    flip is forced, so "mutant ≠ honest bytes" holds by construction and an
    [Ok] verdict on a mutant is always a soundness alarm. *)

type op =
  | Bit_flip  (** flip one random bit *)
  | Byte_set  (** overwrite one byte with a fresh value *)
  | Truncate  (** cut the blob short at a random offset *)
  | Extend  (** append 1-16 random bytes *)
  | Splice  (** copy a random range over another offset *)
  | Zero_run  (** zero a run of 1-32 bytes *)
  | Magic_tamper
      (** corrupt the 8-byte magic: a random header byte, or swap in the
          legacy [NCAP1] prefix *)
  | Tag_tamper  (** replace the backend tag byte (offset 8) *)

val all_ops : op list

val op_name : op -> string
(** Stable snake_case identifier, the per-operator bucket key in fuzz
    reports. *)

val apply : Zk_util.Rng.t -> op -> bytes -> bytes
(** Apply one operator. The result is never equal to the input (a forced
    bit flip backs up any degenerate draw); the input is not modified.
    Requires a non-empty input. *)

val random : Zk_util.Rng.t -> bytes -> op * bytes
(** Draw an operator uniformly and {!apply} it. *)
