(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. VIII) and runs one Bechamel microbenchmark per
   table/figure plus the substrate kernels they are built from.

   Usage:
     main.exe                    full report + microbenchmarks + every bench
     main.exe report             tables/figures only
     main.exe bench              microbenchmarks only
     main.exe NAME[-smoke] [PATH]
                                 one bench (see [benches] below) at full or
                                 smoke size; PATH defaults to BENCH_NAME.json
                                 (BENCH_NAME_smoke.json for a smoke run)
     main.exe stream-row ...     one endtoend proof of the stream bench,
                                 run by it as a child process
     main.exe table4 ...         tables/figures by id

   GC tuning for every mode lives in [tune_gc] below. *)

open Nocap_repro
open Bechamel
open Toolkit

(* The one place the harness touches the GC. A larger minor heap keeps the
   boxed baselines from spending their time in minor collections (so the
   boxed-vs-unboxed comparison in `memory` measures allocation cost, not
   collector scheduling), and a higher space_overhead keeps the major GC
   out of the timed regions. NOCAP_GC_MINOR_MB (validated once by
   Engine.Config, along with NOCAP_DOMAINS) overrides the minor-heap size
   in MiB. *)
let tune_gc () = Engine.tune_gc (Engine.default ())

(* Static verification of every schedule the harness produces: each kernel
   program at the vector lengths the benches use, linted and checked against
   its Schedule.run schedule. Fails loudly — a dirty program here means a
   kernel generator or the scheduler regressed. *)
let run_lint () =
  Zk_report.Render.section "Static analysis: program lint + schedule check";
  let verdicts =
    List.concat_map
      (fun k -> Program_corpus.verify_all Hw_config.default (Program_corpus.kernels ~vector_len:k))
      [ 64; 256; 2048 ]
  in
  Zk_report.Render.table
    ~header:[ "program"; "k"; "errors"; "warnings"; "makespan"; "critical path" ]
    (List.map
       (fun (v : Program_corpus.verdict) ->
         [
           v.Program_corpus.entry.Program_corpus.name;
           string_of_int v.Program_corpus.entry.Program_corpus.vector_len;
           string_of_int
             (List.length
                (Diag.errors
                   (v.Program_corpus.lint.Lint.diags @ v.Program_corpus.check.Schedule_check.diags)));
           string_of_int
             (List.length (Diag.warnings v.Program_corpus.lint.Lint.diags));
           string_of_int v.Program_corpus.check.Schedule_check.makespan;
           string_of_int v.Program_corpus.check.Schedule_check.critical_path;
         ])
       verdicts);
  let bad = List.filter (fun v -> not (Program_corpus.clean v)) verdicts in
  if bad <> [] then (
    List.iter
      (fun v -> Printf.eprintf "%s\n" (Program_corpus.summary v))
      bad;
    failwith "static analysis found errors in harness programs")

let report_items : (string * (unit -> unit)) list =
  [
    ("lint", run_lint);
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

(* --- Bechamel microbenchmarks: one per table/figure, exercising the kernel
   that drives it, plus the underlying substrate kernels. --- *)

let rng = Rng.create 0xBE5CAFEL

let staged = Staged.stage

let bench_table1 =
  Test.make ~name:"table1/endtoend-model" (staged (fun () ->
      List.iter
        (fun p -> ignore (Endtoend.run p ~n_constraints:16.0e6 ()))
        Endtoend.[ Groth16_cpu; Groth16_gpu; Groth16_pipezk; Spartan_cpu; Spartan_nocap ]))

let bench_table2 =
  Test.make ~name:"table2/area-model" (staged (fun () ->
      ignore (Area.total (Area.of_config Hw_config.default))))

let bench_table3 =
  Test.make ~name:"table3/proof-size-model" (staged (fun () ->
      List.iter
        (fun (b : Benchmarks.t) ->
          ignore (Proofsize.spartan_orion_proof_bytes ~n_constraints:b.Benchmarks.r1cs_size))
        Benchmarks.all))

let bench_table4 =
  Test.make ~name:"table4/nocap-simulator" (staged (fun () ->
      List.iter
        (fun (b : Benchmarks.t) ->
          let wl =
            Workload.spartan_orion ~density:b.Benchmarks.density
              ~n_constraints:b.Benchmarks.r1cs_size ()
          in
          ignore (Simulator.run Hw_config.default wl))
        Benchmarks.all))

let bench_table5 =
  Test.make ~name:"table5/endtoend-benchmarks" (staged (fun () ->
      List.iter
        (fun b -> ignore (Endtoend.benchmark_breakdown Endtoend.Spartan_nocap b))
        Benchmarks.all))

let bench_fig5 =
  Test.make ~name:"fig5/power-model" (staged (fun () ->
      let r =
        Simulator.run Hw_config.default (Workload.spartan_orion ~n_constraints:16.0e6 ())
      in
      ignore (Power.of_result r)))

let bench_fig6 =
  Test.make ~name:"fig6/task-breakdown" (staged (fun () ->
      let r =
        Simulator.run Hw_config.default (Workload.spartan_orion ~n_constraints:16.0e6 ())
      in
      List.iter (fun t -> ignore (Simulator.task_fraction r t)) Workload.all_tasks))

let bench_fig7 =
  Test.make ~name:"fig7/sensitivity-point" (staged (fun () ->
      let c = Hw_config.scale_fu Hw_config.default `Arith 0.5 in
      ignore (Simulator.run c (Workload.spartan_orion ~n_constraints:16.0e6 ()))))

let bench_fig8 =
  Test.make ~name:"fig8/design-point" (staged (fun () ->
      let c = Hw_config.scale_hbm (Hw_config.scale_regfile Hw_config.default 2.0) 2.0 in
      ignore (Area.total (Area.of_config c));
      ignore (Simulator.run c (Workload.spartan_orion ~n_constraints:16.0e6 ()))))

(* Substrate kernels (the real computations behind the tasks of Fig. 4). *)

let gf_inputs = Array.init 4096 (fun _ -> Gf.random rng)

let bench_gf_mul =
  Test.make ~name:"kernel/gf-mul-4096" (staged (fun () ->
      let acc = ref Gf.one in
      Array.iter (fun x -> acc := Gf.mul !acc x) gf_inputs;
      ignore !acc))

let ntt_input = Array.init 4096 (fun _ -> Gf.random rng)

let bench_ntt =
  let plan = Ntt.Gf_ntt.plan 4096 in
  Test.make ~name:"kernel/ntt-4096" (staged (fun () ->
      ignore (Ntt.Gf_ntt.forward_copy plan ntt_input)))

let sha_input = Bytes.make 1024 'x'

let bench_sha3 =
  Test.make ~name:"kernel/sha3-1KB" (staged (fun () -> ignore (Keccak.sha3_256 sha_input)))

let rs_msg = Fv.of_array (Array.init 1024 (fun _ -> Gf.random rng))

let codeword = Fv.create (4 * 1024)

let bench_rs_encode =
  Test.make ~name:"ablation/rs-encode-1024" (staged (fun () ->
      Reed_solomon.encode_row_into ~src:rs_msg ~dst:codeword))

let bench_expander_encode =
  Test.make ~name:"ablation/expander-encode-1024" (staged (fun () ->
      Expander_code.encode_row_into ~src:rs_msg ~dst:codeword))

let merkle_leaves =
  Merkle.of_digests (Array.init 1024 (fun i -> Keccak.sha3_256_string (string_of_int i)))

let bench_merkle =
  Test.make ~name:"kernel/merkle-1024" (staged (fun () ->
      ignore (Merkle.root (Merkle.build merkle_leaves))))

let sumcheck_tables = Array.init 4 (fun _ -> Array.init 4096 (fun _ -> Gf.random rng))

let bench_sumcheck =
  Test.make ~name:"kernel/sumcheck-2^12" (staged (fun () ->
      let t = Transcript.create "bench" in
      ignore
        (Sumcheck.prove t ~tables:(Sumcheck_oracle.spills sumcheck_tables)
           ~comb:Sumcheck.Eq_abc)))

let spartan_instance = lazy (Synthetic.circuit ~n_constraints:2000 ~seed:42L ())

let bench_spartan_prove =
  Test.make ~name:"kernel/spartan-prove-2k" (staged (fun () ->
      let inst, asn = Lazy.force spartan_instance in
      ignore (Spartan.prove Spartan.test_params inst asn)))

let msm_points = lazy (Array.init 64 (fun _ -> G1.random rng))
let msm_scalars = Array.init 64 (fun _ -> Fr_bls.random rng)

let bench_msm =
  Test.make ~name:"baseline/msm-pippenger-64" (staged (fun () ->
      ignore (Msm.pippenger msm_scalars (Lazy.force msm_points))))

let bench_vm_kernel =
  let vm = Vm.create ~vector_len:256 ~num_regs:8 ~mem_slots:8 in
  let data = Array.init 256 (fun _ -> Gf.random rng) in
  Vm.write_mem vm 0 data;
  Vm.write_mem vm 1 data;
  Vm.write_mem vm 4 (Array.make 256 (Gf.random rng));
  let kern = Kernels.sumcheck_round ~vector_len:256 in
  Test.make ~name:"kernel/vm-sumcheck-round" (staged (fun () ->
      Vm.exec vm kern.Kernels.program))

let bench_aggregate =
  let fixture =
    lazy
      (let inst, asn = Synthetic.circuit ~n_constraints:500 ~seed:43L () in
       (inst, Array.make 4 asn))
  in
  Test.make ~name:"extension/aggregate-batch-4" (staged (fun () ->
      let inst, asns = Lazy.force fixture in
      ignore (Aggregate.prove Spartan.test_params inst asns)))

let bench_sumcheck_ext =
  let tables = Array.init 4 (fun _ -> Array.init 1024 (fun _ -> Gf.random rng)) in
  let comb v = Gf2.mul v.(0) (Gf2.sub (Gf2.mul v.(1) v.(2)) v.(3)) in
  let claim =
    let acc = ref Gf.zero in
    for b = 0 to 1023 do
      acc :=
        Gf.add !acc
          (Gf.mul tables.(0).(b)
             (Gf.sub (Gf.mul tables.(1).(b) tables.(2).(b)) tables.(3).(b)))
    done;
    !acc
  in
  Test.make ~name:"extension/sumcheck-ext-2^10" (staged (fun () ->
      let t = Transcript.create "bench-ext" in
      ignore (Sumcheck_ext.prove t ~degree:3 ~tables ~comb ~comb_mults:2 ~claim)))

let bench_streams =
  let program = (Kernels.sumcheck_round ~vector_len:2048).Kernels.program in
  Test.make ~name:"extension/streams-split" (staged (fun () ->
      ignore (Streams.split Hw_config.default ~vector_len:2048 program)))

let bench_four_step =
  let kern, twiddles = Kernels.four_step_ntt ~rows:16 ~cols:16 in
  let vm = Vm.create ~vector_len:256 ~num_regs:8 ~mem_slots:4 in
  let input = Array.init 256 (fun _ -> Gf.random rng) in
  Vm.write_mem vm 0 input;
  Vm.write_mem vm 1 twiddles;
  Test.make ~name:"extension/four-step-ntt-256" (staged (fun () ->
      Vm.exec vm kern.Kernels.program))

let bench_analysis =
  let entries = Program_corpus.kernels ~vector_len:256 in
  Test.make ~name:"extension/analysis-verify" (staged (fun () ->
      List.iter
        (fun v ->
          if not (Program_corpus.clean v) then failwith "analysis: unclean program")
        (Program_corpus.verify_all Hw_config.default entries)))

let bench_multichip =
  Test.make ~name:"extension/multichip-sweep" (staged (fun () ->
      ignore (Multichip.sweep ~n_constraints:550.0e6 ~chips:[ 1; 2; 4; 8; 16 ] ())))

let bench_fri =
  let coeffs = Array.init 512 (fun _ -> Gf.random rng) in
  Test.make ~name:"extension/fri-prove-512" (staged (fun () ->
      let t = Transcript.create "bench-fri" in
      ignore (Fri.prove Fri.default_params t coeffs)))

let bench_stark =
  Test.make ~name:"extension/stark-fib-256" (staged (fun () ->
      ignore (Stark.prove ~n:256 ~a0:Gf.one ~a1:Gf.one)))

let bench_serialize =
  let fixture =
    lazy
      (let inst, asn = Synthetic.circuit ~n_constraints:300 ~seed:44L () in
       fst (Spartan.prove Spartan.test_params inst asn))
  in
  Test.make ~name:"extension/proof-serialize" (staged (fun () ->
      let proof = Lazy.force fixture in
      match Spartan.proof_of_bytes (Spartan.proof_to_bytes proof) with
      | Ok _ -> ()
      | Error e -> failwith (Zk_pcs.Verify_error.to_string e)))

let all_benches =
  [
    bench_table1; bench_table2; bench_table3; bench_table4; bench_table5;
    bench_fig5; bench_fig6; bench_fig7; bench_fig8;
    bench_gf_mul; bench_ntt; bench_sha3; bench_rs_encode; bench_expander_encode;
    bench_merkle; bench_sumcheck; bench_spartan_prove; bench_msm; bench_vm_kernel;
    bench_aggregate; bench_sumcheck_ext; bench_streams; bench_four_step;
    bench_multichip; bench_serialize; bench_fri; bench_stark; bench_analysis;
  ]

let run_benches () =
  Zk_report.Render.section "Microbenchmarks (Bechamel, monotonic clock)";
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.2) ~stabilize:false () in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let grouped = Test.make_grouped ~name:"nocap" all_benches in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns = match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Zk_report.Render.table
    ~header:[ "benchmark"; "time/run" ]
    (List.map (fun (name, ns) -> [ name; Zk_report.Render.seconds (ns /. 1e9) ]) rows)

(* Every bench writes one BENCH_<name>.json report. *)
let benches : (string * (smoke:bool -> path:string -> unit)) list =
  [
    ("parallel", Bench_parallel.run) (* serial vs multi-domain kernels *);
    ("memory", Bench_memory.run) (* boxed vs unboxed kernels + GC stats *);
    ("backend", Bench_backend.run) (* Orion vs FRI PCS backends *);
    ("native", Bench_native.run) (* OCaml vs scalar-C vs SIMD kernels *);
    ("faults", Bench_faults.run) (* fault-injection sweep over mutated proofs *);
    ("analysis", Bench_analysis.run) (* circuit lint + structure + mutation oracle *);
    ("stream", Bench_stream.run) (* stream budget vs no budget + peak RSS *);
    ("serve", Bench_serve.run) (* proving service under load + injected faults *);
  ]

let run_bench ?path ~smoke (name, run) =
  let default = Printf.sprintf "BENCH_%s%s.json" name (if smoke then "_smoke" else "") in
  run ~smoke ~path:(Option.value path ~default)

(* "NAME" or "NAME-smoke", for a NAME in [benches]. *)
let find_bench arg =
  let smoke = String.ends_with ~suffix:"-smoke" arg in
  let name = if smoke then String.sub arg 0 (String.length arg - 6) else arg in
  Option.map (fun run -> (smoke, (name, run))) (List.assoc_opt name benches)

let () =
  tune_gc ();
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [] ->
    List.iter (fun (_, f) -> f ()) report_items;
    run_benches ();
    List.iter (run_bench ~smoke:false) benches
  | [ "report" ] -> List.iter (fun (_, f) -> f ()) report_items
  | [ "bench" ] -> run_benches ()
  | "stream-row" :: row -> Bench_stream.row_main row
  | arg :: rest -> (
    match (find_bench arg, rest) with
    | Some (smoke, bench), [] -> run_bench ~smoke bench
    | Some (smoke, bench), [ path ] -> run_bench ~path ~smoke bench
    | _ ->
      List.iter
        (fun id ->
          match List.assoc_opt id report_items with
          | Some f -> f ()
          | None -> Printf.eprintf "unknown item %s\n" id)
        args)
