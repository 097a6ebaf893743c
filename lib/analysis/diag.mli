(** Structured diagnostics shared by the {!Lint} program linter, the
    {!Check} schedule checker and the {!Circuit_lint} R1CS linter.

    Every finding is anchored to an index so that it can be cross-referenced
    with the analysed artifact: an instruction index for program/schedule
    findings (the same index {!Nocap_model.Vm.exec} failures report), a
    constraint-row index for per-row circuit findings, or a z-vector column
    for per-variable circuit findings. Analyses return diagnostics instead of
    raising: a broken artifact yields a report that names every violation,
    not just the first. *)

type severity = Error | Warning

type t = {
  severity : severity;
  index : int;
      (** instruction index / constraint row / z column, depending on the
          rule; {!program_level} for whole-artifact findings *)
  rule : string;  (** stable kebab-case rule name, e.g. ["uninitialized-read"] *)
  message : string;
}

val program_level : int
(** Sentinel index ([-1]) for diagnostics not tied to one instruction. *)

val error : index:int -> rule:string -> string -> t
val warning : index:int -> rule:string -> string -> t

val errors : t list -> t list
val warnings : t list -> t list

val is_clean : t list -> bool
(** No [Error]-severity diagnostics ([Warning]s are advisory: e.g. the SpMV
    compiler's gather shuffles are flagged but valid). *)

val has_rule : string -> t list -> bool
(** Is there a diagnostic with the given rule name? *)

val to_string : t -> string
(** ["error[uninitialized-read] at #3: ..."]. *)

val pp : Format.formatter -> t -> unit

(** {1 Exit codes}

    Scriptable contract shared by [nocap-cli lint] and
    [nocap-cli circuit-lint], mirroring the {!Verify_error} convention:
    [0] means no errors, and every error rule has a stable code starting at
    20 (see {!error_rule_codes}). Drivers print the winning rule name on
    stderr as the final line. Warnings never affect the exit code. *)

val error_rule_codes : (string * int) list
(** The full rule-name → exit-code table, in priority order (lower code =
    higher priority when several categories fire at once). *)

val rule_code : string -> int
(** Code for one error rule; unknown rules map to a reserved catch-all. *)

val exit_category : t list -> (string * int) option
(** The highest-priority error rule present, with its code; [None] when the
    diagnostics contain no errors. *)

val exit_code : t list -> int
(** [0] when {!is_clean}, else the code of {!exit_category}. *)

(** {1 Machine-readable JSON}

    A stable JSON envelope (schema id ["nocap-diag/v1"]) shared by both
    linters' [--format json] output, parseable with {!Zk_util.Json_min}. *)

val to_json : t -> string
(** One diagnostic as a single-line JSON object. *)

val list_to_json : t list -> string
(** The full report: [{"schema": ..., "exit_code": ..., "diags": [...]}]. *)

val list_of_json_string : string -> t list
(** Parse {!list_to_json} output back; raises {!Zk_util.Json_min.Bad_json}
    on schema mismatch or an [exit_code] inconsistent with the diags. *)
