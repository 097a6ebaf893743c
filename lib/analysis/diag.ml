type severity = Error | Warning

type t = {
  severity : severity;
  index : int;
  rule : string;
  message : string;
}

let program_level = -1

let error ~index ~rule message = { severity = Error; index; rule; message }

let warning ~index ~rule message = { severity = Warning; index; rule; message }

let errors ds = List.filter (fun d -> d.severity = Error) ds

let warnings ds = List.filter (fun d -> d.severity = Warning) ds

let is_clean ds = errors ds = []

let has_rule rule ds = List.exists (fun d -> d.rule = rule) ds

let to_string d =
  let sev = match d.severity with Error -> "error" | Warning -> "warning" in
  let where =
    if d.index = program_level then "program" else Printf.sprintf "#%d" d.index
  in
  Printf.sprintf "%s[%s] at %s: %s" sev d.rule where d.message

let pp fmt d = Format.pp_print_string fmt (to_string d)

(* --- exit codes: one per error category, shared by both linters --------- *)

(* The scriptable contract (README "Linting" exit-code table), mirroring the
   Verify_error convention: 0 = clean, and each error rule maps to a stable
   code starting at 20. When several categories fire at once the
   highest-priority (lowest-numbered) one wins, and drivers print that rule
   name on stderr as the final line. Warnings never affect the exit code. *)
let error_rule_codes =
  [
    (* circuit linter (Circuit_lint) *)
    ("unconstrained-variable", 20);
    ("under-constrained-variable", 21);
    ("unsatisfied-constraint", 22);
    ("trivial-constraint", 23);
    (* ISA program linter (Lint) *)
    ("bad-vector-len", 24);
    ("bad-register", 25);
    ("uninitialized-read", 26);
    ("bad-slot", 27);
    ("bad-permutation", 28);
    ("bad-rotate", 29);
    ("bad-interleave", 30);
    ("bad-tile", 31);
    ("bad-delay", 32);
    (* schedule checker (Check) *)
    ("length-mismatch", 33);
    ("instr-mismatch", 34);
    ("negative-issue", 35);
    ("raw-hazard", 36);
    ("fu-overlap", 37);
    ("finish-mismatch", 38);
    ("fu-busy-mismatch", 39);
    ("makespan-mismatch", 40);
  ]

let unknown_rule_code = 41

let rule_code rule =
  match List.assoc_opt rule error_rule_codes with
  | Some c -> c
  | None -> unknown_rule_code

let exit_category ds =
  match errors ds with
  | [] -> None
  | errs ->
    let best =
      List.fold_left
        (fun acc d ->
          match acc with
          | Some (_, c) when c <= rule_code d.rule -> acc
          | _ -> Some (d.rule, rule_code d.rule))
        None errs
    in
    best

let exit_code ds = match exit_category ds with None -> 0 | Some (_, c) -> c

(* --- stable machine-readable JSON form ---------------------------------- *)

let severity_name = function Error -> "error" | Warning -> "warning"

let severity_of_name = function
  | "error" -> Error
  | "warning" -> Warning
  | s -> raise (Zk_util.Json_min.Bad_json ("unknown severity " ^ s))

let json_value d =
  Zk_util.Json_min.(
    Obj
      [
        ("severity", Str (severity_name d.severity));
        ("index", Num (float_of_int d.index));
        ("rule", Str d.rule);
        ("message", Str d.message);
      ])

let to_json d = Zk_util.Json_min.to_string (json_value d)

let json_schema = "nocap-diag/v1"

let list_to_json ds =
  Zk_util.Json_min.(
    to_string
      (Obj
         [
           ("schema", Str json_schema);
           ("exit_code", Num (float_of_int (exit_code ds)));
           ("diags", List (List.map json_value ds));
         ]))
  ^ "\n"

let of_json j =
  let open Zk_util.Json_min in
  {
    severity = severity_of_name (as_str (field j "severity"));
    index = int_of_float (as_num (field j "index"));
    rule = as_str (field j "rule");
    message = as_str (field j "message");
  }

let list_of_json_string s =
  let open Zk_util.Json_min in
  let j = parse_json s in
  if as_str (field j "schema") <> json_schema then
    raise (Bad_json "wrong diag schema id");
  let ds = List.map of_json (as_list (field j "diags")) in
  if int_of_float (as_num (field j "exit_code")) <> exit_code ds then
    raise (Bad_json "exit_code does not match diags");
  ds
