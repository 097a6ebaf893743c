module Rng = Zk_util.Rng
module E = Zk_pcs.Verify_error

type target = {
  name : string;
  honest : bytes;
  verify : bytes -> (unit, E.t) result;
  structured : (string * (Rng.t -> bytes option)) list;
}

type verdict = Rejected of E.category | Accepted | Raised of string

let run_bytes target data =
  match target.verify data with
  | Ok () -> Accepted
  | Error e -> Rejected e.E.category
  | exception exn -> Raised (Printexc.to_string exn)

type report = {
  target_name : string;
  byte_mutants : int;
  structured_mutants : int;
  rejected : int;
  accepted : int;
  raised : int;
  honest_ok : bool;
  by_category : (string * int) list;
  by_op : (string * int) list;
  alarms : string list;
}

let clean r = r.accepted = 0 && r.raised = 0 && r.honest_ok

(* Mutable tally the sweep threads through; buckets are fixed up front so
   the report always lists every category/op, zeros included. *)
type tally = {
  mutable t_rejected : int;
  mutable t_accepted : int;
  mutable t_raised : int;
  mutable t_alarms : string list;
  cat_counts : int array;
  op_counts : (string * int ref) list;
}

let max_recorded_alarms = 20

let record tally ?op ~desc verdict =
  (match verdict with
  | Rejected c ->
    tally.t_rejected <- tally.t_rejected + 1;
    let rec idx i = function
      | [] -> assert false
      | c' :: rest -> if c' = c then i else idx (i + 1) rest
    in
    let i = idx 0 E.all_categories in
    tally.cat_counts.(i) <- tally.cat_counts.(i) + 1;
    Option.iter (fun o -> incr (List.assoc o tally.op_counts)) op
  | Accepted ->
    tally.t_accepted <- tally.t_accepted + 1;
    if List.length tally.t_alarms < max_recorded_alarms then
      tally.t_alarms <- (desc ^ ": ACCEPTED (soundness alarm)") :: tally.t_alarms
  | Raised msg ->
    tally.t_raised <- tally.t_raised + 1;
    if List.length tally.t_alarms < max_recorded_alarms then
      tally.t_alarms <- (desc ^ ": RAISED " ^ msg ^ " (robustness alarm)") :: tally.t_alarms)

let sweep ?(seed = 1L) ~byte_mutants ~structured_rounds target =
  let rng = Rng.create seed in
  let tally =
    {
      t_rejected = 0;
      t_accepted = 0;
      t_raised = 0;
      t_alarms = [];
      cat_counts = Array.make (List.length E.all_categories) 0;
      op_counts =
        List.map (fun o -> (Mutate.op_name o, ref 0)) Mutate.all_ops
        @ List.map (fun (mname, _) -> (mname, ref 0)) target.structured;
    }
  in
  let honest_ok = run_bytes target target.honest = Accepted in
  for i = 0 to byte_mutants - 1 do
    let op, mutant = Mutate.random rng target.honest in
    let desc =
      Printf.sprintf "%s byte mutant #%d (seed %Ld, op %s)" target.name i seed
        (Mutate.op_name op)
    in
    record tally ~op:(Mutate.op_name op) ~desc (run_bytes target mutant)
  done;
  let structured_count = ref 0 in
  for round = 0 to structured_rounds - 1 do
    List.iter
      (fun (mname, f) ->
        match f rng with
        | None -> ()
        | Some mutant ->
          incr structured_count;
          if Bytes.equal mutant target.honest then
            record tally
              ~desc:(Printf.sprintf "%s structured mutant %s" target.name mname)
              (Raised "mutator returned the honest bytes unchanged")
          else
            let desc =
              Printf.sprintf "%s structured mutant %s round %d (seed %Ld)" target.name
                mname round seed
            in
            record tally ~op:mname ~desc (run_bytes target mutant))
      target.structured
  done;
  {
    target_name = target.name;
    byte_mutants;
    structured_mutants = !structured_count;
    rejected = tally.t_rejected;
    accepted = tally.t_accepted;
    raised = tally.t_raised;
    honest_ok;
    by_category =
      List.mapi (fun i c -> (E.category_name c, tally.cat_counts.(i))) E.all_categories;
    by_op = List.map (fun (name, r) -> (name, !r)) tally.op_counts;
    alarms = List.rev tally.t_alarms;
  }

let pp_report fmt r =
  Format.fprintf fmt "target %s: %d byte + %d structured mutants, %d rejected"
    r.target_name r.byte_mutants r.structured_mutants r.rejected;
  Format.fprintf fmt ", %d accepted, %d raised, honest %s@\n" r.accepted r.raised
    (if r.honest_ok then "ok" else "REJECTED");
  Format.fprintf fmt "  by category:";
  List.iter (fun (c, n) -> if n > 0 then Format.fprintf fmt " %s=%d" c n) r.by_category;
  Format.fprintf fmt "@\n  by operator:";
  List.iter (fun (o, n) -> if n > 0 then Format.fprintf fmt " %s=%d" o n) r.by_op;
  Format.fprintf fmt "@\n";
  List.iter (fun a -> Format.fprintf fmt "  ALARM: %s@\n" a) r.alarms

(* --- corpus --- *)

let load_corpus_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let buf = Buffer.create 256 in
      (try
         while true do
           let line = input_line ic in
           let line =
             match String.index_opt line '#' with
             | Some i -> String.sub line 0 i
             | None -> line
           in
           let hex =
             String.concat ""
               (String.split_on_char ' ' (String.trim line)
               |> List.concat_map (String.split_on_char '\t'))
           in
           let n = String.length hex in
           if n mod 2 <> 0 then
             failwith (Printf.sprintf "%s: odd number of hex digits on a line" path);
           for i = 0 to (n / 2) - 1 do
             let pair = String.sub hex (2 * i) 2 in
             match int_of_string_opt ("0x" ^ pair) with
             | Some b -> Buffer.add_char buf (Char.chr b)
             | None -> failwith (Printf.sprintf "%s: bad hex byte %S" path pair)
           done
         done
       with End_of_file -> ());
      Bytes.of_string (Buffer.contents buf))

let replay_corpus target ~dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".hex")
  |> List.sort String.compare
  |> List.map (fun f ->
         let data = load_corpus_file (Filename.concat dir f) in
         (f, run_bytes target data))
