(* The one writer behind every BENCH_*.json.

   A bench builds its report as a typed [Json_min] document and states its
   gates once, as [(ok, message)] pairs computed from its typed rows.
   [write] prints the document, reads the file back and requires the parse
   to equal the value it printed (so printer and parser agree on every
   report), then prints every failing gate and exits 1 if there is any. *)

open Nocap_repro

type gate = bool * string

let int n = Json_min.Num (float_of_int n)

(* An array with one object per row. *)
let objs f rows = Json_min.List (List.map (fun r -> Json_min.Obj (f r)) rows)

(* A name -> count object. *)
let counts kvs = Json_min.Obj (List.map (fun (k, n) -> (k, int n)) kvs)

(* One gate per required name: "<what> <name> missing". *)
let require ~what names required =
  List.map (fun r -> (List.mem r names, Printf.sprintf "%s %S missing" what r)) required

let section title ~smoke =
  Zk_report.Render.section (title ^ if smoke then " (smoke)" else "")

(* Best-of-r wall time from a settled heap, so collections triggered by the
   previous configuration are not charged to this one. *)
let time_best ~reps f =
  Gc.full_major ();
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

let write ~path ~schema ~(gates : gate list) fields =
  let doc = Json_min.Obj (("schema", Json_min.Str schema) :: fields) in
  let round_trip =
    match Json_min.to_string doc with
    | exception Json_min.Bad_json msg -> [ "unprintable document: " ^ msg ]
    | text -> (
      Out_channel.with_open_bin path (fun oc -> output_string oc (text ^ "\n"));
      match Json_min.parse_json (In_channel.with_open_bin path In_channel.input_all) with
      | parsed when parsed = doc -> []
      | _ -> [ "document changed in the round trip" ]
      | exception Json_min.Bad_json msg -> [ "document does not parse back: " ^ msg ])
  in
  match round_trip @ List.filter_map (fun (ok, m) -> if ok then None else Some m) gates with
  | [] -> Printf.printf "wrote %s (schema %s, %d gates pass)\n%!" path schema (List.length gates)
  | failed ->
    List.iter (Printf.eprintf "%s: FAILED: %s\n" path) failed;
    Printf.eprintf "%!";
    exit 1
