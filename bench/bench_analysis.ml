(* Circuit static-analysis bench: lints the shipped workload corpus, emits
   the structure reports the performance model consumes, and replays a
   seeded mutation sweep demanding zero silent accepts — every weakened
   circuit must trip its operator's expected lint rule.

   Writes BENCH_analysis.json through [Bench_report.write], whose gates exit
   non-zero on any lint error in the corpus, report inconsistency
   (Structure.consistent), or silent mutant.

   [run ~smoke:true] backs the @bench-smoke alias that tier-1 runs: it lints
   the fast corpus entries and sweeps >= 1000 mutants; the full run covers
   every corpus circuit with a larger sweep. *)

open Nocap_repro

let schema_id = "nocap-bench-analysis/v1"
let mutant_seed = 0xC1_6C_57L

(* Fast corpus subset for the smoke sweep: lint + mutate cost is dominated
   by circuit size, and these four stay under ~10 ms per lint. *)
let smoke_lint_names =
  [ "modexp"; "auction"; "ml_inference"; "verifiable_db"; "synthetic" ]

let smoke_mutate_names = [ "auction"; "ml_inference"; "verifiable_db"; "synthetic" ]

type circuit_row = {
  report : Circuit_report.t;
  verdict : Circuit_lint.verdict;
  density_rel : float;
  streamable : bool;
  consistent : bool;
  prover_seconds : float;
}

type mutant_totals = {
  total : int;
  caught : int;
  unsatisfied : int;  (* mutants the honest assignment no longer satisfies *)
  by_op : (string * int) list;
}

type mutant_sweep = {
  totals : mutant_totals;
  silent : string list;  (* "circuit/op" of every mutant its rule missed *)
}

(* --- report --------------------------------------------------------------- *)

let document ~smoke ~anchor_name (rows : circuit_row list) (m : mutant_totals) =
  let open Bench_report in
  let open Json_min in
  [
    ("smoke", Bool smoke);
    ("seed", Num (Int64.to_float mutant_seed));
    ("anchor", Str anchor_name);
    ( "circuits",
      objs
        (fun r ->
          let v = r.verdict in
          [
            ("report", Circuit_report.to_json r.report);
            ("density_rel", Num r.density_rel);
            ("streamable", Bool r.streamable);
            ("consistent", Bool r.consistent);
            ("prover_seconds_est", Num r.prover_seconds);
            ( "lint",
              Obj
                [
                  ("errors", int (List.length (Diag.errors v.Circuit_lint.diags)));
                  ("warnings", int (List.length (Diag.warnings v.Circuit_lint.diags)));
                  ("propagated", int v.Circuit_lint.propagated);
                  ("probe_unknowns", int v.Circuit_lint.probe_unknowns);
                  ("probe_free", int v.Circuit_lint.probe_free);
                  ("probe_ops", int v.Circuit_lint.probe_ops);
                ] );
          ])
        rows );
    ( "mutants",
      Obj
        [
          ("total", int m.total);
          ("caught", int m.caught);
          ("silent_accepts", int (m.total - m.caught));
          ("unsatisfied", int m.unsatisfied);
          ("by_op", counts m.by_op);
        ] );
  ]

(* Every corpus circuit lint-clean, consistent, free of residual degrees of
   freedom and with a positive structure; a sweep of >= 1000 mutants with
   zero silent accepts, every operator preserving satisfiability, and the
   per-operator counts summing to the total. *)
let gates (rows : circuit_row list) { totals = m; silent } =
  (rows <> [], "circuits must be non-empty")
  :: List.concat_map
       (fun r ->
         let name = r.report.Circuit_report.name in
         let v = r.verdict in
         [
           (name <> "", "circuit name must be non-empty");
           (r.report.Circuit_report.total_nnz > 0, name ^ ": total_nnz must be positive");
           ( r.report.Circuit_report.density_factor > 0.0,
             name ^ ": density_factor must be positive" );
           (r.density_rel > 0.0, name ^ ": density_rel must be positive");
           ( Circuit_lint.is_clean v,
             String.concat "\n  "
               (Printf.sprintf "circuit %s has lint errors: %s" name (Circuit_lint.summary v)
               :: List.map Diag.to_string (Diag.errors v.Circuit_lint.diags)) );
           ( r.consistent,
             Printf.sprintf "circuit %s report failed Structure.consistent: %s" name
               (match Structure.consistent r.report with Ok () -> "" | Error e -> e) );
           ( v.Circuit_lint.probe_free = 0,
             name ^ ": corpus circuit has residual degrees of freedom" );
         ])
       rows
  @ [
      (m.total >= 1000, "mutant sweep must cover >= 1000 mutants");
      ( m.caught = m.total,
        Printf.sprintf "%d silent accepts in the mutation sweep: %s" (m.total - m.caught)
          (String.concat ", " silent) );
      ( m.unsatisfied = 0,
        Printf.sprintf "mutation operators broke satisfiability %d times" m.unsatisfied );
      (List.fold_left (fun acc (_, n) -> acc + n) 0 m.by_op = m.total, "by_op must sum to total");
    ]

(* --- driver ------------------------------------------------------------- *)

(* Every weakened circuit must trip its operator's expected rule, and the
   honest assignment must still satisfy it (the operators are weakenings,
   not corruptions). *)
let mutation_sweep ~smoke entries =
  let per_circuit = if smoke then 260 else 1500 in
  let total = ref 0 and caught = ref 0 and unsat = ref 0 in
  let by_op = Hashtbl.create 8 in
  let silent = ref [] in
  List.iter
    (fun (e : Circuit_corpus.entry) ->
      let inst, asgn = e.Circuit_corpus.generate ~scale:1 in
      List.iter
        (fun (op, mutant) ->
          incr total;
          let name = Circuit_mutate.op_name op in
          Hashtbl.replace by_op name
            (1 + try Hashtbl.find by_op name with Not_found -> 0);
          if not (R1cs.satisfied mutant asgn) then incr unsat;
          let diags = Circuit_lint.lint mutant asgn in
          if Diag.has_rule (Circuit_mutate.expected_rule op) diags then
            incr caught
          else
            silent :=
              Printf.sprintf "%s/%s" e.Circuit_corpus.name
                (Circuit_mutate.op_to_string op)
              :: !silent)
        (Circuit_mutate.sweep ~seed:mutant_seed ~count:per_circuit inst asgn))
    entries;
  Printf.printf "mutation sweep: %d mutants, %d caught, %d silent, %d unsatisfied\n%!"
    !total !caught (!total - !caught) !unsat;
  {
    totals =
      {
        total = !total;
        caught = !caught;
        unsatisfied = !unsat;
        by_op = Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_op [];
      };
    silent = List.rev !silent;
  }

let run ~smoke ~path =
  Bench_report.section "Circuit analysis: lint + structure + mutation oracle" ~smoke;
  let entries name_filter =
    List.filter
      (fun (e : Circuit_corpus.entry) ->
        match name_filter with
        | None -> true
        | Some names -> List.mem e.Circuit_corpus.name names)
      Circuit_corpus.entries
  in
  let lint_entries = entries (if smoke then Some smoke_lint_names else None) in
  (* The anchor: the AES circuit defines density 1.0 for the performance
     model. Building its report does not require linting it, so the smoke
     run pays only generation + one entries pass. *)
  let anchor_entry =
    match Circuit_corpus.find "aes128" with
    | Some e -> e
    | None -> failwith "corpus must contain aes128"
  in
  let anchor_inst, _ = anchor_entry.Circuit_corpus.generate ~scale:1 in
  let anchor = Circuit_report.of_instance ~name:"aes128" anchor_inst in
  let rows =
    List.map
      (fun (e : Circuit_corpus.entry) ->
        let inst, asgn = e.Circuit_corpus.generate ~scale:1 in
        let verdict = Circuit_lint.analyze inst asgn in
        let report = Circuit_report.of_instance ~name:e.Circuit_corpus.name inst in
        {
          report;
          verdict;
          density_rel = Structure.density_relative ~anchor report;
          streamable = Structure.spmv_streamable report;
          consistent = Result.is_ok (Structure.consistent report);
          prover_seconds = Structure.prover_seconds_of_report ~anchor report;
        })
      lint_entries
  in
  Zk_report.Render.table
    ~header:
      [ "circuit"; "rows"; "nnz"; "density"; "errors"; "warnings"; "probed"; "free" ]
    (List.map
       (fun r ->
         [
           r.report.Circuit_report.name;
           string_of_int r.report.Circuit_report.num_constraints;
           string_of_int r.report.Circuit_report.total_nnz;
           Printf.sprintf "%.2f" r.density_rel;
           string_of_int (List.length (Diag.errors r.verdict.Circuit_lint.diags));
           string_of_int
             (List.length (Diag.warnings r.verdict.Circuit_lint.diags));
           string_of_int r.verdict.Circuit_lint.probe_unknowns;
           string_of_int r.verdict.Circuit_lint.probe_free;
         ])
       rows);
  (* The sweep lints every mutant, so it sticks to the fast circuits in both
     modes; the full run compensates with a much larger draw count. *)
  let sweep = mutation_sweep ~smoke (entries (Some smoke_mutate_names)) in
  Bench_report.write ~path ~schema:schema_id ~gates:(gates rows sweep)
    (document ~smoke ~anchor_name:"aes128" rows sweep.totals)
