(* Fault-injection sweep: mutate honest proofs at the wire and structure
   layers for every Spartan backend and demand the verifier rejects each
   mutant with a structured error — no accepts (soundness alarm), no
   exceptions (robustness alarm). Writes BENCH_faults.json through
   [Bench_report.write], whose gates exit non-zero on any alarm.

   [run ~smoke:true] backs the @fuzz-smoke alias that tier-1 verify builds;
   the full run is the acceptance sweep (>= 10k mutants per backend). *)

open Nocap_repro

let schema_id = "nocap-bench-faults/v1"

(* --- report --------------------------------------------------------------- *)

let document ~seed (reports : Fuzz.report list) =
  let open Bench_report in
  let open Json_min in
  [
    ("seed", Num (Int64.to_float seed));
    ( "targets",
      objs
        (fun (r : Fuzz.report) ->
          [
            ("name", Str r.Fuzz.target_name);
            ("byte_mutants", int r.Fuzz.byte_mutants);
            ("structured_mutants", int r.Fuzz.structured_mutants);
            ("rejected", int r.Fuzz.rejected);
            ("accepted", int r.Fuzz.accepted);
            ("raised", int r.Fuzz.raised);
            ("honest_ok", Bool r.Fuzz.honest_ok);
            ("by_category", counts r.Fuzz.by_category);
            ("by_op", counts r.Fuzz.by_op);
            ("alarms", List (List.map (fun a -> Str a) r.Fuzz.alarms));
          ])
        reports );
  ]

(* Per backend: zero accepts and raises with the honest proof verifying,
   mutants of both layers, every mutant rejected and bucketed, and every
   structured mutator of the target with at least one mutant (a mutator
   that always returns [None] is dead coverage). Both backends must be
   present. *)
let gates (targets : Fuzz.target list) (reports : Fuzz.report list) =
  List.concat_map
    (fun ((t : Fuzz.target), (r : Fuzz.report)) ->
      let name = r.Fuzz.target_name in
      [
        ( Fuzz.clean r,
          Printf.sprintf "fault sweep FAILED on %s: %d accepted, %d raised, honest %b" name
            r.Fuzz.accepted r.Fuzz.raised r.Fuzz.honest_ok );
        (r.Fuzz.byte_mutants > 0, name ^ ": byte_mutants must be positive");
        (r.Fuzz.structured_mutants > 0, name ^ ": structured_mutants must be positive");
        ( r.Fuzz.rejected = r.Fuzz.byte_mutants + r.Fuzz.structured_mutants,
          name ^ ": rejected must account for every mutant" );
        ( List.fold_left (fun acc (_, n) -> acc + n) 0 r.Fuzz.by_category = r.Fuzz.rejected,
          name ^ ": by_category must sum to rejected" );
      ]
      @ List.map
          (fun (mname, _) ->
            ( (match List.assoc_opt mname r.Fuzz.by_op with Some n -> n >= 1 | None -> false),
              Printf.sprintf "%s: structured mutator %s made no mutant" name mname ))
          t.Fuzz.structured)
    (List.combine targets reports)
  @ Bench_report.require ~what:"target"
      (List.map (fun (r : Fuzz.report) -> r.Fuzz.target_name) reports)
      [ "orion"; "fri" ]

(* --- driver ------------------------------------------------------------- *)

let run ~smoke ~path =
  Bench_report.section "Fault injection: mutated proofs vs the verifier" ~smoke;
  let seed = 0xFA_17_5EL in
  (* The full sweep is the acceptance run: >= 10k mutants per backend.
     Structured mutants come from ~17 mutators per round, so 600 rounds
     yields ~10k structured on top of the 10k byte mutants. *)
  let byte_mutants = if smoke then 150 else 10_000 in
  let structured_rounds = if smoke then 4 else 600 in
  let targets = Fault_targets.all () in
  let reports =
    List.map (fun target -> Fuzz.sweep ~seed ~byte_mutants ~structured_rounds target) targets
  in
  Zk_report.Render.table
    ~header:[ "target"; "byte"; "structured"; "rejected"; "accepted"; "raised"; "honest" ]
    (List.map
       (fun (r : Fuzz.report) ->
         [
           r.Fuzz.target_name;
           string_of_int r.Fuzz.byte_mutants;
           string_of_int r.Fuzz.structured_mutants;
           string_of_int r.Fuzz.rejected;
           string_of_int r.Fuzz.accepted;
           string_of_int r.Fuzz.raised;
           (if r.Fuzz.honest_ok then "ok" else "REJECTED");
         ])
       reports);
  List.iter (fun r -> Format.printf "%a" Fuzz.pp_report r) reports;
  Bench_report.write ~path ~schema:schema_id ~gates:(gates targets reports) (document ~seed reports)
