type category =
  | Bad_header
  | Truncated
  | Malformed_field
  | Shape
  | Params
  | Merkle_mismatch
  | Sumcheck_mismatch
  | Consistency

type t = { category : category; detail : string }

let make category detail = { category; detail }

let error category detail = Error (make category detail)

let errorf category fmt = Printf.ksprintf (fun s -> Error (make category s)) fmt

let all_categories =
  [
    Bad_header;
    Truncated;
    Malformed_field;
    Shape;
    Params;
    Merkle_mismatch;
    Sumcheck_mismatch;
    Consistency;
  ]

let category_name = function
  | Bad_header -> "bad_header"
  | Truncated -> "truncated"
  | Malformed_field -> "malformed_field"
  | Shape -> "shape"
  | Params -> "params"
  | Merkle_mismatch -> "merkle_mismatch"
  | Sumcheck_mismatch -> "sumcheck_mismatch"
  | Consistency -> "consistency"

let exit_code category =
  let rec index i = function
    | [] -> assert false
    | c :: rest -> if c = category then i else index (i + 1) rest
  in
  10 + index 0 all_categories

let to_string { category; detail } = category_name category ^ ": " ^ detail

let pp fmt e = Format.pp_print_string fmt (to_string e)
