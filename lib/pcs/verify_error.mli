(** Structured error taxonomy for the verification boundary.

    Every decoder and verifier that can be fed attacker-controlled bytes —
    {!Codec} readers, [proof_of_bytes], PCS [verify], Spartan/Aggregate
    verification, sumcheck replay — reports failure as a [t]: a coarse
    {!category} (stable, machine-checkable, the unit the fault-injection
    harness buckets by and the CLI maps to exit codes) plus a free-form
    human [detail]. The contract of the whole boundary is: arbitrary input
    yields [Error] of one of these categories, never an exception.

    Categories are ordered roughly by how far into verification the input
    got: framing ([Bad_header]), byte-level decode ([Truncated],
    [Malformed_field]), structural shape ([Shape]), parameter/statement
    mismatch ([Params]), then the cryptographic checks ([Merkle_mismatch],
    [Sumcheck_mismatch], [Consistency]). *)

type category =
  | Bad_header
      (** wrong magic, legacy [NCAP1] framing, unknown or mismatched
          backend tag *)
  | Truncated  (** input ends before a field it promised *)
  | Malformed_field
      (** non-canonical field element, implausible length field, trailing
          bytes after a complete proof *)
  | Shape
      (** decoded structure has wrong counts or dimensions (rounds,
          repetitions, query/column/layer counts, vector lengths) *)
  | Params
      (** invalid parameters, or a commitment/statement inconsistent with
          the verifier's parameters (matrix layout, io prefix, point
          dimension) *)
  | Merkle_mismatch  (** an authentication path fails to reach the root *)
  | Sumcheck_mismatch
      (** a sumcheck invariant fails: [g(0) + g(1)] vs the running claim,
          or a final reduced claim *)
  | Consistency
      (** any other cryptographic cross-check fails: claimed evaluation,
          encoded-row consistency, fold chain, proximity test *)

type t = { category : category; detail : string }

val make : category -> string -> t
val error : category -> string -> ('a, t) result
(** [error c msg] is [Error (make c msg)]. *)

val errorf : category -> ('a, unit, string, ('b, t) result) format4 -> 'a
(** Printf-style {!error}. *)

val all_categories : category list
(** In taxonomy order; drives exhaustive bucketing in the fault harness. *)

val category_name : category -> string
(** Stable lowercase snake-case identifier ("bad_header", "truncated", ...):
    the bucket key in BENCH_faults.json and the token [nocap-cli verify]
    prints on stderr. *)

val exit_code : category -> int
(** Distinct per-category process exit code for [nocap-cli verify]
    (documented in the README): 10 + the category's position in
    {!all_categories}, so [bad_header] = 10 ... [consistency] = 17. *)

val to_string : t -> string
(** ["<category_name>: <detail>"]. *)

val pp : Format.formatter -> t -> unit
