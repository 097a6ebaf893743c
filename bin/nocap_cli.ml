(* Command-line front end: prove/verify real circuits, run the accelerator
   model, and regenerate the paper's tables and figures.

     nocap-cli prove --benchmark aes --scale 2
     nocap-cli simulate --constraints 16e6 --hbm-gbps 2048
     nocap-cli report table4 fig7
     nocap-cli db --rows 8 --batches 3 --txs 4 *)

open Cmdliner
open Nocap_repro

let benchmark_arg =
  let doc = "Benchmark circuit: aes, sha, rsa, litmus, or auction." in
  Arg.(value & opt string "aes" & info [ "benchmark"; "b" ] ~docv:"NAME" ~doc)

let scale_arg =
  let doc = "Workload scale (blocks / bids / transactions)." in
  Arg.(value & opt int 1 & info [ "scale"; "s" ] ~docv:"N" ~doc)

let reps_arg =
  let doc = "Sumcheck soundness repetitions (paper uses 3)." in
  Arg.(value & opt int 1 & info [ "repetitions"; "r" ] ~docv:"N" ~doc)

let pcs_arg =
  let doc = "Proof backend: orion (default) or fri." in
  Arg.(value & opt string "orion" & info [ "pcs" ] ~docv:"BACKEND" ~doc)

let find_benchmark name =
  try Benchmarks.find name
  with Not_found ->
    Printf.eprintf "unknown benchmark %s\n" name;
    exit 2

(* Prove (and self-check) over any Spartan instantiation, optionally writing
   the serialized proof for a later `nocap-cli verify`. *)
module Prove_run (S : Zk_spartan.Spartan.S) = struct
  let run ~reps ~out inst asn =
    let params = { S.test_params with S.repetitions = reps } in
    let t0 = Unix.gettimeofday () in
    let proof, stats = S.prove params inst asn in
    let t1 = Unix.gettimeofday () in
    Printf.printf "  proved in %.3f s (%d sumcheck mults, %d spmv mults, %d hashes)\n%!"
      (t1 -. t0) stats.S.sumcheck_mults stats.S.spmv_mults stats.S.transcript_hashes;
    Printf.printf "  proof size: %d bytes\n%!" (S.proof_size_bytes params proof);
    let t2 = Unix.gettimeofday () in
    (match S.verify params inst ~io:(R1cs.public_io inst asn) proof with
    | Ok () -> Printf.printf "  verified in %.3f s: OK\n%!" (Unix.gettimeofday () -. t2)
    | Error e ->
      Printf.printf "  VERIFICATION FAILED: %s\n%!" (Zk_pcs.Verify_error.to_string e);
      exit 1);
    match out with
    | None -> ()
    | Some path ->
      let data = S.proof_to_bytes proof in
      let oc = open_out_bin path in
      output_bytes oc data;
      close_out oc;
      Printf.printf "  wrote %s (%d bytes, backend %s)\n%!" path (Bytes.length data)
        S.P.name
end

let prove_cmd =
  let out_arg =
    let doc = "Write the serialized proof to $(docv)." in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let run name scale reps pcs out =
    let b = find_benchmark name in
    Printf.printf "building %s circuit (scale %d): %s\n%!" b.Benchmarks.name scale
      b.Benchmarks.description;
    let inst, asn = b.Benchmarks.generate scale in
    Printf.printf "  constraints: %d (padded to 2^%d), nnz: %d\n%!"
      inst.R1cs.num_constraints inst.R1cs.log_size (R1cs.nnz inst);
    (match pcs with
    | "orion" ->
      let module M = Prove_run (Spartan) in
      M.run ~reps ~out inst asn
    | "fri" ->
      let module M = Prove_run (Spartan_fri) in
      M.run ~reps ~out inst asn
    | other ->
      Printf.eprintf "unknown PCS backend %s (expected orion or fri)\n" other;
      exit 2);
    (* Model the same statement at paper scale. *)
    let wl =
      Workload.spartan_orion ~density:b.Benchmarks.density
        ~n_constraints:b.Benchmarks.r1cs_size ()
    in
    let sim = Simulator.run Hw_config.default wl in
    Printf.printf "at paper scale (%.0fM constraints): NoCap would prove in %s\n"
      (b.Benchmarks.r1cs_size /. 1e6)
      (Zk_report.Render.seconds sim.Simulator.total_seconds)
  in
  Cmd.v (Cmd.info "prove" ~doc:"Build a benchmark circuit, prove and verify it.")
    Term.(const run $ benchmark_arg $ scale_arg $ reps_arg $ pcs_arg $ out_arg)

(* `verify` treats the proof file as untrusted input: any outcome other than
   acceptance is a categorized Verify_error mapped to a distinct exit code
   (documented in the README), with the category name on stderr — never an
   exception. The statement is regenerated deterministically from the same
   benchmark/scale the proof was made for. *)
let verify_cmd =
  let proof_arg =
    let doc = "Serialized proof file (written by prove --out)." in
    Arg.(required & opt (some string) None & info [ "proof"; "p" ] ~docv:"FILE" ~doc)
  in
  let run name scale reps proof_path =
    let b = find_benchmark name in
    let data =
      try
        let ic = open_in_bin proof_path in
        let n = in_channel_length ic in
        let data = really_input_string ic n in
        close_in ic;
        Bytes.of_string data
      with Sys_error msg ->
        Printf.eprintf "cannot read proof: %s\n" msg;
        exit 2
    in
    let inst, asn = b.Benchmarks.generate scale in
    let io = R1cs.public_io inst asn in
    let result =
      match Spartan.backend_of_bytes data with
      | Error e -> Error e
      | Ok bk when String.equal bk Orion_pcs.name ->
        let params = { Spartan.test_params with Spartan.repetitions = reps } in
        Result.map
          (fun () -> bk)
          (Result.bind (Spartan.proof_of_bytes data) (Spartan.verify params inst ~io))
      | Ok bk when String.equal bk Fri_pcs.name ->
        let params = { Spartan_fri.test_params with Spartan_fri.repetitions = reps } in
        Result.map
          (fun () -> bk)
          (Result.bind (Spartan_fri.proof_of_bytes data) (Spartan_fri.verify params inst ~io))
      | Ok bk ->
        Verify_error.errorf Verify_error.Bad_header "no verifier wired for backend %S" bk
    in
    match result with
    | Ok bk ->
      Printf.printf "proof verified OK (%s backend, %d bytes, %s scale %d)\n" bk
        (Bytes.length data) b.Benchmarks.name scale
    | Error e ->
      Printf.eprintf "%s\n" (Verify_error.to_string e);
      exit (Verify_error.exit_code e.Verify_error.category)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Verify an untrusted serialized proof against a regenerated benchmark \
          statement. Exit codes: 0 accepted, 2 usage/io, 10-17 one per rejection \
          category (bad_header=10 ... consistency=17).")
    Term.(const run $ benchmark_arg $ scale_arg $ reps_arg $ proof_arg)

(* `fuzz` is the CLI face of the fault-injection harness: seeded, replayable
   sweeps whose only healthy outcome is every mutant rejected with a
   structured error. *)
let fuzz_cmd =
  let backend_arg =
    let doc = "Target backend: orion, fri, or both." in
    Arg.(value & opt string "both" & info [ "backend" ] ~docv:"NAME" ~doc)
  in
  let mutants_arg =
    let doc = "Byte-level mutants per target." in
    Arg.(value & opt int 1000 & info [ "mutants"; "n" ] ~docv:"N" ~doc)
  in
  let rounds_arg =
    let doc = "Structural mutation rounds per target (one mutant per mutator per round)." in
    Arg.(value & opt int 30 & info [ "structured-rounds" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "RNG seed; (seed, index) replays any mutant." in
    Arg.(value & opt int 0xFA175E & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let run backend mutants rounds seed =
    let targets =
      match backend with
      | "both" -> Fault_targets.all ()
      | name -> (
        match Fault_targets.by_name name with
        | Some t -> [ t ]
        | None ->
          Printf.eprintf "unknown backend %s (expected orion, fri, or both)\n" name;
          exit 2)
    in
    let reports =
      List.map
        (Fuzz.sweep ~seed:(Int64.of_int seed) ~byte_mutants:mutants
           ~structured_rounds:rounds)
        targets
    in
    List.iter (fun r -> Format.printf "%a%!" Fuzz.pp_report r) reports;
    if List.for_all Fuzz.clean reports then
      Printf.printf "fuzz: every mutant rejected with a structured error\n"
    else begin
      Printf.eprintf "fuzz: ALARM — corrupted proof accepted or exception raised\n";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Fault-inject the verifier: mutate honest proofs at the byte and \
          structure level and demand structured rejection of every mutant. \
          Exits 1 on any accept (soundness alarm) or exception (robustness \
          alarm).")
    Term.(const run $ backend_arg $ mutants_arg $ rounds_arg $ seed_arg)

let constraints_arg =
  let doc = "Statement size in R1CS constraints." in
  Arg.(value & opt float 16.0e6 & info [ "constraints"; "n" ] ~docv:"N" ~doc)

let hbm_arg =
  let doc = "HBM bandwidth in GB/s." in
  Arg.(value & opt float 1024.0 & info [ "hbm-gbps" ] ~docv:"GBPS" ~doc)

let arith_arg =
  let doc = "Multiply/add lane-count scale factor." in
  Arg.(value & opt float 1.0 & info [ "arith-scale" ] ~docv:"F" ~doc)

let regfile_arg =
  let doc = "Register file size in MB." in
  Arg.(value & opt float 8.0 & info [ "regfile-mb" ] ~docv:"MB" ~doc)

let simulate_cmd =
  let run n hbm arith regfile =
    let c = Hw_config.scale_fu Hw_config.default `Arith arith in
    let c = { c with Hw_config.hbm_gbps = hbm; regfile_mb = regfile } in
    Printf.printf "%s\n" (Hw_config.describe c);
    let r = Simulator.run c (Workload.spartan_orion ~n_constraints:n ()) in
    Printf.printf "proving time: %s (%.0f cycles)\n"
      (Zk_report.Render.seconds r.Simulator.total_seconds)
      r.Simulator.total_cycles;
    List.iter
      (fun (t : Simulator.task_timing) ->
        Printf.printf "  %-13s %6.2f%%  bound by %s\n"
          (Workload.task_name t.Simulator.task)
          (100.0 *. t.Simulator.cycles /. r.Simulator.total_cycles)
          (Simulator.resource_name t.Simulator.bound_by))
      r.Simulator.tasks;
    let area = Area.of_config c in
    let power = Power.of_result r in
    Printf.printf "area: %.1f mm^2, power: %.1f W, compute utilization: %.0f%%\n"
      (Area.total area) (Power.total power)
      (100.0 *. r.Simulator.compute_utilization)
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run the NoCap timing/area/power model on one statement.")
    Term.(const run $ constraints_arg $ hbm_arg $ arith_arg $ regfile_arg)

let report_items =
  [
    ("table1", Zk_report.Tables.table1);
    ("table2", Zk_report.Tables.table2);
    ("table3", Zk_report.Tables.table3);
    ("table4", Zk_report.Tables.table4);
    ("table5", Zk_report.Tables.table5);
    ("fig5", Zk_report.Figures.fig5);
    ("fig6", Zk_report.Figures.fig6);
    ("fig7", Zk_report.Figures.fig7);
    ("fig8", Zk_report.Figures.fig8);
    ("ablations", Zk_report.Figures.ablations);
    ("db", Zk_report.Figures.db_throughput);
    ("apps", Zk_report.Figures.applications);
    ("scaling", Zk_report.Figures.scaling);
    ("soundness", Zk_report.Figures.soundness_ablation);
  ]

let report_cmd =
  let ids_arg =
    let doc = "Items to print (default: all). One of: table1..table5, fig5..fig8, ablations, db, apps." in
    Arg.(value & pos_all string [] & info [] ~docv:"ITEM" ~doc)
  in
  let run ids =
    let ids = if ids = [] then List.map fst report_items else ids in
    List.iter
      (fun id ->
        match List.assoc_opt id report_items with
        | Some f -> f ()
        | None -> Printf.eprintf "unknown report item %s\n" id)
      ids
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Regenerate the paper's evaluation tables and figures.")
    Term.(const run $ ids_arg)

let db_cmd =
  let rows_arg = Arg.(value & opt int 8 & info [ "rows" ] ~docv:"N" ~doc:"Table rows.") in
  let batches_arg = Arg.(value & opt int 2 & info [ "batches" ] ~docv:"N" ~doc:"Batches to prove.") in
  let txs_arg = Arg.(value & opt int 4 & info [ "txs" ] ~docv:"N" ~doc:"Transactions per batch.") in
  let run rows batches txs =
    let db = Zkdb.create ~rows ~seed:7L in
    let rng = Rng.create 8L in
    for i = 1 to batches do
      let batch = Litmus_circuit.random_transactions rng ~rows ~count:txs in
      let t0 = Unix.gettimeofday () in
      let receipt = Zkdb.prove_batch db batch in
      let ok = Zkdb.verify_batch receipt in
      Printf.printf "batch %d: %d txs, %d constraints, proved+verified in %.3f s: %s\n%!"
        i txs receipt.Zkdb.instance.R1cs.num_constraints
        (Unix.gettimeofday () -. t0)
        (if ok then "OK" else "FAILED")
    done;
    Zk_report.Figures.db_throughput ()
  in
  Cmd.v
    (Cmd.info "db" ~doc:"Run the verifiable database demo and throughput analysis.")
    Term.(const run $ rows_arg $ batches_arg $ txs_arg)

let batch_cmd =
  let size_arg =
    Arg.(value & opt int 4 & info [ "size"; "k" ] ~docv:"K" ~doc:"Statements per batch.")
  in
  let run k =
    (* k proofs of knowledge of factorizations, batched into shared
       sumchecks (Aggregate): the Litmus-style amortization. *)
    let build x y =
      let b = Builder.create () in
      let vx = Builder.witness b (Gf.of_int x) in
      let vy = Builder.witness b (Gf.of_int y) in
      let out = Builder.input b (Gf.of_int (x * y)) in
      Builder.constrain b (Builder.lc_var vx) (Builder.lc_var vy) (Builder.lc_var out);
      Builder.finalize b
    in
    let rng = Rng.create 99L in
    let pairs = Array.init k (fun _ -> (2 + Rng.int rng 100, 2 + Rng.int rng 100)) in
    let inst = fst (build (fst pairs.(0)) (snd pairs.(0))) in
    let assignments = Array.map (fun (x, y) -> snd (build x y)) pairs in
    let t0 = Unix.gettimeofday () in
    let proof = Aggregate.prove Spartan.test_params inst assignments in
    let mid = Unix.gettimeofday () in
    let ios = Array.map (R1cs.public_io inst) assignments in
    (match Aggregate.verify Spartan.test_params inst ~ios proof with
    | Ok () ->
      Printf.printf
        "batched %d statements: proved in %.3f s, verified in %.3f s (%d bytes, one shared sumcheck pair)\n"
        k (mid -. t0)
        (Unix.gettimeofday () -. mid)
        (Aggregate.proof_size_bytes Spartan.test_params proof)
    | Error e ->
      Printf.eprintf "batch verification failed: %s\n" (Zk_pcs.Verify_error.to_string e);
      exit 1);
    let single, _ = Spartan.prove Spartan.test_params inst assignments.(0) in
    Printf.printf "k separate proofs would total %d bytes\n"
      (k * Spartan.proof_size_bytes Spartan.test_params single)
  in
  Cmd.v
    (Cmd.info "batch" ~doc:"Prove many statements of one circuit with shared sumchecks.")
    Term.(const run $ size_arg)

(* Both linters share the PR-5-style scriptable contract: structured Diag
   findings, --format json for the stable nocap-diag/v1 envelope, the
   winning rule name on stderr as the final line, and one exit code per
   error rule (Diag.error_rule_codes, starting at 20). *)
let format_arg =
  let doc = "Output format: text, or json (the stable nocap-diag/v1 envelope on stdout)." in
  Arg.(value & opt string "text" & info [ "format" ] ~docv:"FMT" ~doc)

let check_format = function
  | "text" | "json" -> ()
  | f ->
    Printf.eprintf "unknown format %s (expected text or json)\n" f;
    exit 2

(* Shared tail of a lint run: emit the envelope (json mode), then the rule
   name on stderr + its exit code if any error rule fired. *)
let finish_lint ~format diags =
  if format = "json" then print_string (Diag.list_to_json diags);
  match Diag.exit_category diags with
  | None -> ()
  | Some (rule, code) ->
    Printf.eprintf "%s\n" rule;
    exit code

let lint_cmd =
  let vector_len_arg =
    let doc = "Vector length for the kernel programs (power of two >= 8)." in
    Arg.(value & opt int 64 & info [ "vector-len"; "k" ] ~docv:"K" ~doc)
  in
  let run name scale vector_len format =
    check_format format;
    let b =
      try Benchmarks.find name
      with Not_found ->
        Printf.eprintf "unknown benchmark %s\n" name;
        exit 2
    in
    if format = "text" then
      Printf.printf "linting built-in kernels (k = %d) and the %s workload's SpMV programs (scale %d)\n%!"
        vector_len b.Benchmarks.name scale;
    let inst, _ = b.Benchmarks.generate scale in
    let pad m =
      let n = max (R1cs.size inst) vector_len in
      Sparse.pad_to m ~nrows:n ~ncols:n
    in
    let entries =
      Program_corpus.kernels ~vector_len
      @ [
          Program_corpus.of_spmv ~name:(b.Benchmarks.name ^ "-spmv-A")
            ~vector_len (pad inst.R1cs.a);
          Program_corpus.of_spmv ~name:(b.Benchmarks.name ^ "-spmv-B")
            ~vector_len (pad inst.R1cs.b);
          Program_corpus.of_spmv ~name:(b.Benchmarks.name ^ "-spmv-C")
            ~vector_len (pad inst.R1cs.c);
        ]
    in
    let verdicts = Program_corpus.verify_all Hw_config.default entries in
    let diags =
      List.concat_map
        (fun v ->
          v.Program_corpus.lint.Lint.diags
          @ v.Program_corpus.check.Schedule_check.diags)
        verdicts
    in
    if format = "text" then begin
      List.iter (fun v -> Printf.printf "%s\n%!" (Program_corpus.summary v)) verdicts;
      let bad = List.filter (fun v -> not (Program_corpus.clean v)) verdicts in
      if bad = [] then
        Printf.printf "all %d programs lint clean and schedule-check clean\n"
          (List.length verdicts)
      else
        Printf.printf "%d of %d programs FAILED verification: %s\n"
          (List.length bad) (List.length verdicts)
          (String.concat ", "
             (List.map (fun v -> v.Program_corpus.entry.Program_corpus.name) bad))
    end;
    finish_lint ~format diags
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically verify ISA programs and schedules: kernels plus a \
          benchmark workload's compiled SpMV, checked for dataflow, \
          permutation, register-pressure, and schedule-hazard violations. \
          Exit codes: 0 clean, 2 usage, else 20+ — one per error rule \
          (see README), rule name on stderr.")
    Term.(const run $ benchmark_arg $ scale_arg $ vector_len_arg $ format_arg)

(* `circuit-lint` is the R1CS-level counterpart: soundness lints over the
   named workload circuits (under-constrained signals, dead inputs, trivial
   or redundant rows) plus the structure report the performance model
   consumes. *)
let circuit_lint_cmd =
  let circuit_arg =
    let doc =
      "Corpus circuit to lint: " ^ String.concat ", " Circuit_corpus.names ^ "."
    in
    Arg.(value & opt string "synthetic" & info [ "circuit"; "c" ] ~docv:"NAME" ~doc)
  in
  let all_arg =
    let doc = "Lint every corpus circuit." in
    Arg.(value & flag & info [ "all" ] ~doc)
  in
  let report_arg =
    let doc = "Also print each circuit's structure report line (text mode)." in
    Arg.(value & flag & info [ "report" ] ~doc)
  in
  let run name all scale show_report format =
    check_format format;
    let entries =
      if all then Circuit_corpus.entries
      else
        match Circuit_corpus.find name with
        | Some e -> [ e ]
        | None ->
          Printf.eprintf "unknown circuit %s (expected one of %s)\n" name
            (String.concat ", " Circuit_corpus.names);
          exit 2
    in
    let diags =
      List.concat_map
        (fun (e : Circuit_corpus.entry) ->
          let inst, asgn = e.Circuit_corpus.generate ~scale in
          let v = Circuit_lint.analyze inst asgn in
          if format = "text" then begin
            Printf.printf "%s: %s\n%!" e.Circuit_corpus.name
              (Circuit_lint.summary v);
            if show_report then
              Printf.printf "  %s\n%!"
                (Circuit_report.summary
                   (Circuit_report.of_instance ~name:e.Circuit_corpus.name inst));
            List.iter
              (fun d -> Printf.printf "  %s\n%!" (Diag.to_string d))
              v.Circuit_lint.diags
          end;
          v.Circuit_lint.diags)
        entries
    in
    if format = "text" && Diag.is_clean diags then
      Printf.printf "all %d circuits lint clean\n" (List.length entries);
    finish_lint ~format diags
  in
  Cmd.v
    (Cmd.info "circuit-lint"
       ~doc:
         "Statically analyze R1CS workload circuits: unconstrained and \
          under-constrained witness signals (unit propagation + Jacobian \
          rank probe), unused public inputs, trivial/duplicate/redundant \
          constraints. Exit codes: 0 clean, 2 usage, else 20+ — one per \
          error rule (see README), rule name on stderr.")
    Term.(const run $ circuit_arg $ all_arg $ scale_arg $ report_arg $ format_arg)

(* `serve` runs the fault-tolerant proving service (DESIGN.md Sec. 15) as a
   self-driving demo: it submits a stream of prove jobs for the requested
   workloads, optionally under the deterministic Runtime_faults plan, and
   reports per-job outcomes plus the final service counters. SIGTERM/SIGINT
   drain in flight jobs and still print the summary. Exit code 0 when every
   admitted job finished with a proof; otherwise the Job_error exit code
   (50-57, table in README) of the first failed job. *)
let serve_cmd =
  let jobs_arg =
    let doc = "Number of jobs to submit." in
    Arg.(value & opt int 16 & info [ "jobs"; "n" ] ~docv:"N" ~doc)
  in
  let runners_arg =
    let doc = "Prover runner domains." in
    Arg.(value & opt int 2 & info [ "runners" ] ~docv:"N" ~doc)
  in
  let capacity_arg =
    let doc = "Queue capacity (admitted-but-unfinished jobs); overflow rejects." in
    Arg.(value & opt int 64 & info [ "capacity" ] ~docv:"N" ~doc)
  in
  let deadline_arg =
    let doc = "Per-job deadline in seconds (default: none)." in
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)
  in
  let mem_budget_arg =
    let doc =
      "Memory budget in bytes; jobs whose working set exceeds it are demoted \
       to a stream budget (spill-file blocks)."
    in
    Arg.(value & opt (some int) None & info [ "mem-budget" ] ~docv:"BYTES" ~doc)
  in
  let faults_arg =
    let doc = "Inject the deterministic fault plan (crashes, spill I/O errors, slow jobs)." in
    Arg.(value & flag & info [ "faults" ] ~doc)
  in
  let workloads_arg =
    let doc = "Workloads to cycle through (default: litmus)." in
    Arg.(value & opt_all string [] & info [ "workload"; "w" ] ~docv:"NAME" ~doc)
  in
  let run jobs runners capacity deadline mem_budget faults workloads scale =
    if jobs < 1 then begin
      Printf.eprintf "serve: --jobs must be >= 1\n";
      exit 2
    end;
    let workloads = if workloads = [] then [ "litmus" ] else workloads in
    let config =
      {
        Serve.default_config with
        Serve.capacity;
        runners;
        default_deadline_s = deadline;
        mem_budget_bytes = mem_budget;
        params = Spartan.test_params;
      }
    in
    let fault_hook = if faults then Some (Runtime_faults.hook Runtime_faults.default) else None in
    let srv = Serve.create ?fault_hook ~config () in
    let restore_signals = Serve.handle_signals srv in
    Printf.printf "serve: %d runner(s), capacity %d, %d job(s) over [%s]%s\n%!" runners capacity
      jobs
      (String.concat "; " workloads)
      (if faults then " with injected faults" else "");
    let wl_arr = Array.of_list workloads in
    let ids = ref [] in
    for i = 0 to jobs - 1 do
      let req =
        {
          Serve.tenant = Printf.sprintf "tenant-%d" (i mod 4);
          workload = wl_arr.(i mod Array.length wl_arr);
          scale;
          kind = Serve.Prove;
          deadline_s = None;
        }
      in
      match Serve.submit srv req with
      | Ok id -> ids := (id, req) :: !ids
      | Error e -> Printf.printf "  job %2d rejected: %s\n%!" i (Job_error.to_string e)
    done;
    let first_failure = ref None in
    List.iter
      (fun (id, req) ->
        match Serve.await srv id with
        | Serve.Proof { bytes; attempts; streamed; elapsed_s } ->
          Printf.printf "  job %2d (%s/%d): proof %d bytes in %.3f s, %d attempt(s)%s\n%!" id
            req.Serve.workload req.Serve.scale (Bytes.length bytes) elapsed_s attempts
            (if streamed then " [streamed]" else "")
        | Serve.Verified { attempts; elapsed_s } ->
          Printf.printf "  job %2d (%s/%d): verified in %.3f s, %d attempt(s)\n%!" id
            req.Serve.workload req.Serve.scale elapsed_s attempts
        | Serve.Failed { error; attempts } ->
          if !first_failure = None then first_failure := Some error;
          Printf.printf "  job %2d (%s/%d): FAILED after %d attempt(s): %s\n%!" id
            req.Serve.workload req.Serve.scale attempts (Job_error.to_string error))
      (List.rev !ids);
    let stats = Serve.shutdown srv in
    restore_signals ();
    if faults then Runtime_faults.disarm_io_faults ();
    Printf.printf
      "serve: done. submitted %d, completed %d, failed %d, rejected %d, invalid %d\n\
      \       retries %d, timeouts %d, cancelled %d, demoted %d, crashes %d, io failures %d\n%!"
      stats.Serve.submitted stats.Serve.completed stats.Serve.failed stats.Serve.rejected
      stats.Serve.invalid stats.Serve.retries stats.Serve.timeouts stats.Serve.cancelled
      stats.Serve.demoted stats.Serve.crashes stats.Serve.io_failures;
    match !first_failure with
    | Some e -> exit (Job_error.exit_code e)
    | None -> ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the fault-tolerant proving service on a stream of jobs: bounded \
          queue, deadlines, retry with backoff, crash isolation, graceful \
          drain on SIGTERM/SIGINT. Exit 0 when every admitted job proved; \
          otherwise the first failure's Job_error exit code (50-57).")
    Term.(
      const run $ jobs_arg $ runners_arg $ capacity_arg $ deadline_arg $ mem_budget_arg
      $ faults_arg $ workloads_arg $ scale_arg)

let () =
  (* Build the default engine up front: this validates NOCAP_DOMAINS /
     NOCAP_GC_MINOR_MB once, loudly, instead of each subsystem quietly
     re-reading the environment. *)
  (try ignore (Nocap_repro.Engine.default ())
   with Invalid_argument msg ->
     Printf.eprintf "nocap-cli: %s\n" msg;
     exit 2);
  let info = Cmd.info "nocap-cli" ~doc:"NoCap reproduction: hash-based ZKP proving and accelerator modeling." in
  exit
    (Cmd.eval
       (Cmd.group info
          [ prove_cmd; verify_cmd; serve_cmd; fuzz_cmd; simulate_cmd; report_cmd; db_cmd; batch_cmd; lint_cmd; circuit_lint_cmd ]))
