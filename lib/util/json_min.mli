(** Minimal JSON representation, printer, parser, and accessors.

    Shared by the bench reports ([BENCH_*.json]), {!Nocap_analysis.Diag}'s
    machine-readable output and the circuit structure reports. Every
    producer builds a typed {!json} value and prints it with {!to_string};
    the bench writer parses each report back and checks it equals the value
    it printed, so a malformed report fails the producing run instead of
    landing in the repo. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Bad_json of string

val to_string : json -> string
(** Two-space indented JSON, no trailing newline. Strings are escaped per
    RFC 8259 (control bytes as [\n], [\t], ... or [\u00XX]; other bytes
    copied through, so UTF-8 stays UTF-8); integral numbers below 1e15
    print as integers, other numbers with the fewest digits that read back
    exactly. [parse_json (to_string j) = j] for every [j] it accepts.
    @raise Bad_json on a non-finite number. *)

val parse_json : string -> json
(** Accepts every JSON string escape; [\uXXXX] (surrogate pairs included)
    decodes to UTF-8.
    @raise Bad_json on malformed input (with the offending offset). *)

val field : json -> string -> json
(** Object member access. @raise Bad_json when missing or not an object. *)

val as_num : json -> float

val as_str : json -> string
val as_list : json -> json list
val as_bool : json -> bool
