(* Minimal JSON representation, printer, parser, and accessors shared by
   the bench reports (BENCH_*.json), the Diag machine-readable output and
   the circuit structure reports. Producers build a [json] value and print
   it with [to_string]; [parse_json (to_string j) = j] for every finite
   document, which the bench writer checks on each report it writes. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Bad_json of string

(* --- printer ------------------------------------------------------------ *)

(* Control bytes get JSON escapes; every other byte, including the bytes of
   multi-byte UTF-8 sequences, is copied through, so any OCaml string
   round-trips through [parse_json]. *)
let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* Integral values print as integers; anything else in the shortest of
   %.15g/%.16g/%.17g that reads back to the same float. *)
let number_to_string f =
  if not (Float.is_finite f) then raise (Bad_json "non-finite number");
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let exact p = Printf.sprintf "%.*g" p f in
    match List.find_opt (fun s -> float_of_string s = f) [ exact 15; exact 16 ] with
    | Some s -> s
    | None -> exact 17

let is_scalar = function List _ | Obj _ -> false | _ -> true

(* Two-space indentation; a container whose members are all scalars stays
   on one line. *)
let to_string j =
  let b = Buffer.create 1024 in
  let rec go indent = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (string_of_bool v)
    | Num f -> Buffer.add_string b (number_to_string f)
    | Str s -> add_string b s
    | List items -> members indent '[' ']' (List.map (fun v -> (None, v)) items)
    | Obj kvs -> members indent '{' '}' (List.map (fun (k, v) -> (Some k, v)) kvs)
  and members indent opening closing kvs =
    let flat = List.for_all (fun (_, v) -> is_scalar v) kvs in
    let break = "\n" ^ String.make (indent + 2) ' ' in
    Buffer.add_char b opening;
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        if not flat then Buffer.add_string b break else if i > 0 then Buffer.add_char b ' ';
        Option.iter (fun k -> add_string b k; Buffer.add_string b ": ") k;
        go (indent + 2) v)
      kvs;
    if not flat then Buffer.add_string b ("\n" ^ String.make indent ' ');
    Buffer.add_char b closing
  in
  go 0 j;
  Buffer.contents b

(* --- parser ------------------------------------------------------------- *)

let parse_json (s : string) : json =
  let pos = ref 0 in
  let len = String.length s in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let hex4 () =
    let digits = if !pos + 4 <= len then String.sub s !pos 4 else "" in
    let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    if String.length digits <> 4 || not (String.for_all is_hex digits) then
      fail "bad \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ digits)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        let c = match peek () with Some c -> c | None -> fail "unterminated escape" in
        advance ();
        (match c with
        | '"' | '\\' | '/' -> Buffer.add_char b c
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          let u = hex4 () in
          let u =
            if u >= 0xD800 && u <= 0xDBFF then begin
              (* High surrogate: must pair with a following \uDC00-\uDFFF. *)
              if not (!pos + 1 < len && s.[!pos] = '\\' && s.[!pos + 1] = 'u') then
                fail "unpaired surrogate";
              pos := !pos + 2;
              let lo = hex4 () in
              if lo < 0xDC00 || lo > 0xDFFF then fail "unpaired surrogate";
              0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
            end
            else if u >= 0xDC00 && u <= 0xDFFF then fail "unpaired surrogate"
            else u
          in
          Buffer.add_utf_8_uchar b (Uchar.of_int u)
        | _ -> fail "unsupported escape");
        go ()
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then (advance (); Obj [])
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((key, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then (advance (); List [])
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' ->
      if !pos + 4 <= len && String.sub s !pos 4 = "true" then (pos := !pos + 4; Bool true)
      else fail "bad literal"
    | Some 'f' ->
      if !pos + 5 <= len && String.sub s !pos 5 = "false" then (pos := !pos + 5; Bool false)
      else fail "bad literal"
    | Some 'n' ->
      if !pos + 4 <= len && String.sub s !pos 4 = "null" then (pos := !pos + 4; Null)
      else fail "bad literal"
    | Some _ ->
      let start = !pos in
      let is_num_char c =
        (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
      in
      while (match peek () with Some c when is_num_char c -> true | _ -> false) do
        advance ()
      done;
      if !pos = start then fail "unexpected character";
      (match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number")
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing garbage";
  v

let field obj key =
  match obj with
  | Obj kvs -> (
    match List.assoc_opt key kvs with
    | Some v -> v
    | None -> raise (Bad_json (Printf.sprintf "missing key %S" key)))
  | _ -> raise (Bad_json (Printf.sprintf "expected object holding %S" key))

let as_num = function Num f -> f | _ -> raise (Bad_json "expected number")

let as_str = function Str s -> s | _ -> raise (Bad_json "expected string")
let as_list = function List l -> l | _ -> raise (Bad_json "expected array")
let as_bool = function Bool b -> b | _ -> raise (Bad_json "expected bool")
