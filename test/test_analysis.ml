(* Static-analysis tests: the Lint program linter, the Check schedule
   checker (used as an oracle against injected mutations), and the fuzz
   property tying the linter's "clean" verdict to VM executability and
   Isa.reads/writes to the registers the VM actually touches. *)

module Config = Nocap_model.Config
module Isa = Nocap_model.Isa
module Vm = Nocap_model.Vm
module Schedule = Nocap_model.Schedule
module Kernels = Nocap_model.Kernels
module Spmv_compile = Nocap_model.Spmv_compile
module Diag = Nocap_analysis.Diag
module Lint = Nocap_analysis.Lint
module Check = Nocap_analysis.Check
module Corpus = Nocap_analysis.Corpus
module Circuit_lint = Nocap_analysis.Circuit_lint
module Circuit_report = Nocap_analysis.Circuit_report
module Circuit_mutate = Nocap_analysis.Circuit_mutate
module Circuit_corpus = Nocap_analysis.Circuit_corpus
module Structure = Zk_perf.Structure
module Gf = Zk_field.Gf
module Sparse = Zk_r1cs.Sparse
module R1cs = Zk_r1cs.R1cs
module Builder = Zk_r1cs.Builder
module Gadgets = Zk_r1cs.Gadgets
module Synthetic = Zk_workloads.Synthetic
module Litmus_circuit = Zk_workloads.Litmus_circuit
module Json_min = Zk_util.Json_min
module Rng = Zk_util.Rng

let gf = Alcotest.testable Gf.pp Gf.equal

let check_rule msg rule diags =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expect %s in [%s]" msg rule
       (String.concat "; " (List.map Diag.to_string diags)))
    true (Diag.has_rule rule diags)

(* --- linter over the real program generators --- *)

let test_kernels_clean () =
  List.iter
    (fun k ->
      List.iter
        (fun (v : Corpus.verdict) ->
          let name = Printf.sprintf "%s k=%d" v.Corpus.entry.Corpus.name k in
          Alcotest.(check bool)
            (name ^ " clean: " ^ Corpus.summary v)
            true (Corpus.clean v);
          (* Hand-written kernels should be warning-free too. *)
          Alcotest.(check (list string))
            (name ^ " warning-free")
            []
            (List.map Diag.to_string (Diag.warnings v.Corpus.lint.Lint.diags)))
        (Corpus.verify_all Config.default (Corpus.kernels ~vector_len:k)))
    [ 8; 64; 512 ]

let test_spmv_programs_clean () =
  let k = 8 in
  let rng = Rng.create 11L in
  for trial = 0 to 4 do
    let n = k * (1 + Rng.int rng 3) in
    let nnz = 1 + Rng.int rng (2 * n) in
    let entries =
      List.init nnz (fun _ ->
          (Rng.int rng n, Rng.int rng n, Gf.of_int (1 + Rng.int rng 1000)))
    in
    let m = Sparse_oracle.of_list ~nrows:n ~ncols:n entries in
    let name = Printf.sprintf "spmv-%d" trial in
    let v = Corpus.verify Config.default (Corpus.of_spmv ~name ~vector_len:k m) in
    Alcotest.(check bool) (name ^ " clean: " ^ Corpus.summary v) true (Corpus.clean v);
    (* The linted program really computes A x on the VM. *)
    let sched = Spmv_compile.compile ~vector_len:k m in
    let vm =
      Vm.create ~vector_len:k ~num_regs:8
        ~mem_slots:(Lint.min_mem_slots sched.Spmv_compile.program)
    in
    let x = Array.init n (fun _ -> Gf.random rng) in
    let y = Spmv_compile.run vm sched x in
    let expected = Sparse_oracle.spmv m x in
    Array.iteri
      (fun i v -> Alcotest.check gf (Printf.sprintf "%s y.(%d)" name i) expected.(i) v)
      y
  done

let test_workload_programs_clean () =
  (* The benchmark workload generators' R1CS matrices, compiled by
     Spmv_compile, pass the linter and the schedule checker. *)
  let k = 64 in
  let b = Zk_workloads.Benchmarks.litmus in
  let inst, _ = b.Zk_workloads.Benchmarks.generate 1 in
  let pad m =
    let n = max (R1cs.size inst) k in
    Sparse.pad_to m ~nrows:n ~ncols:n
  in
  List.iter
    (fun (name, m) ->
      let v = Corpus.verify Config.default (Corpus.of_spmv ~name ~vector_len:k (pad m)) in
      Alcotest.(check bool) (name ^ " clean: " ^ Corpus.summary v) true (Corpus.clean v))
    [ ("litmus-A", inst.R1cs.a); ("litmus-B", inst.R1cs.b); ("litmus-C", inst.R1cs.c) ]

(* --- injected program mutations --- *)

let lint8 ?num_regs ?mem_slots p = (Lint.lint ?num_regs ?mem_slots ~vector_len:8 p).Lint.diags

let test_lint_detects () =
  let k = 8 in
  (* Uninitialized read: r0/r1 never written. *)
  check_rule "uninit" "uninitialized-read" (lint8 [ Isa.Vadd (2, 0, 1) ]);
  (* Register budget. *)
  check_rule "budget" "bad-register" (lint8 ~num_regs:8 [ Isa.Vsplat (9, Gf.one) ]);
  check_rule "negative reg" "bad-register" (lint8 [ Isa.Vsplat (-1, Gf.one) ]);
  (* Memory-slot bound. *)
  check_rule "slot" "bad-slot" (lint8 ~mem_slots:4 [ Isa.Vload (0, 5) ]);
  (* Permutation shape and range. *)
  check_rule "perm length" "bad-permutation"
    (lint8 [ Isa.Vload (0, 0); Isa.Vshuffle (1, 0, Array.make 4 0) ]);
  let oor = Array.init k (fun i -> i) in
  oor.(3) <- k;
  check_rule "perm range" "bad-permutation"
    (lint8 [ Isa.Vload (0, 0); Isa.Vshuffle (1, 0, oor) ]);
  (* A gather is a warning, not an error. *)
  let gather_diags =
    lint8
      [ Isa.Vload (0, 0); Isa.Vshuffle (1, 0, Array.make k 0); Isa.Vstore (1, 1) ]
  in
  check_rule "gather" "non-bijective-shuffle" gather_diags;
  Alcotest.(check bool) "gather is still clean" true (Diag.is_clean gather_diags);
  (* Rotate/interleave/tile/delay shapes. *)
  check_rule "rotate" "bad-rotate" (lint8 [ Isa.Vload (0, 0); Isa.Vrotate (1, 0, -1) ]);
  check_rule "rotate wrap" "rotate-wraps"
    (lint8 [ Isa.Vload (0, 0); Isa.Vrotate (1, 0, k) ]);
  check_rule "interleave" "bad-interleave"
    (lint8 [ Isa.Vload (0, 0); Isa.Vinterleave (1, 0, 3) ]);
  check_rule "tile" "bad-tile"
    (lint8 [ Isa.Vload (0, 0); Isa.Vntt_tiled { dst = 1; src = 0; tile = 3; inverse = false } ]);
  check_rule "delay" "bad-delay" (lint8 [ Isa.Delay (-2) ]);
  (* Dead code. *)
  check_rule "dead write" "dead-write"
    (lint8 [ Isa.Vsplat (0, Gf.one); Isa.Vsplat (0, Gf.two); Isa.Vstore (0, 0) ]);
  check_rule "dead store" "dead-store"
    (lint8 [ Isa.Vsplat (0, Gf.one); Isa.Vstore (0, 0); Isa.Vstore (0, 0) ]);
  check_rule "alias" "input-output-alias" (lint8 [ Isa.Vload (0, 0); Isa.Vstore (0, 0) ]);
  (* Vector length itself. *)
  check_rule "vector len" "bad-vector-len"
    (Lint.lint ~vector_len:6 [ Isa.Vsplat (0, Gf.one) ]).Lint.diags

let test_pressure_accounting () =
  let r = Lint.lint ~vector_len:64 Kernels.elementwise_mul.Kernels.program in
  Alcotest.(check int) "min registers" 3 (Lint.min_registers r);
  Alcotest.(check int) "regs used" 3 r.Lint.pressure.Lint.regs_used;
  Alcotest.(check int) "peak live" 2 r.Lint.pressure.Lint.peak_live;
  Alcotest.(check (list int)) "inputs" [ 0; 1 ] r.Lint.input_slots;
  Alcotest.(check (list int)) "outputs" [ 2 ] r.Lint.output_slots;
  Alcotest.(check int) "mem slots" 3
    (Lint.min_mem_slots Kernels.elementwise_mul.Kernels.program);
  let r = Lint.lint ~vector_len:64 (Kernels.sumcheck_round ~vector_len:64).Kernels.program in
  Alcotest.(check int) "sumcheck registers" 8 (Lint.min_registers r);
  Alcotest.(check bool) "sumcheck peak within file" true
    (r.Lint.pressure.Lint.peak_live >= 3 && r.Lint.pressure.Lint.peak_live <= 8)

(* --- schedule checker as an oracle --- *)

let test_schedules_clean () =
  List.iter
    (fun k ->
      List.iter
        (fun (v : Corpus.verdict) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s k=%d schedule clean: %s" v.Corpus.entry.Corpus.name k
               (Check.summary v.Corpus.check))
            true
            (Check.is_clean v.Corpus.check);
          (* The dependence critical path lower-bounds any legal schedule. *)
          Alcotest.(check bool) "makespan >= critical path" true
            (v.Corpus.check.Check.makespan >= v.Corpus.check.Check.critical_path))
        (Corpus.verify_all Config.default (Corpus.kernels ~vector_len:k)))
    [ 64; 2048 ]

let mutate_slot i f (s : Schedule.schedule) =
  {
    s with
    Schedule.slots =
      List.mapi (fun j slot -> if i = j then f slot else slot) s.Schedule.slots;
  }

let test_check_oracle () =
  let k = 64 in
  let config = Config.default in
  let program = (Kernels.sumcheck_round ~vector_len:k).Kernels.program in
  let sched = Schedule.run config ~vector_len:k program in
  let diags s = (Check.check config ~vector_len:k program s).Check.diags in
  Alcotest.(check bool) "valid schedule clean" true (Diag.is_clean (diags sched));
  (* Early issue: instruction 3 (Vrotate r6, r0) consumes the slot-0 load;
     issuing it at cycle 0 violates the dependence. Keep finish consistent so
     only the hazard fires. *)
  (match List.nth program 3 with
  | Isa.Vrotate (6, 0, 0) -> ()
  | i -> Alcotest.failf "fixture drifted: instruction 3 is %s" (Isa.describe i));
  let early =
    mutate_slot 3
      (fun slot ->
        {
          slot with
          Schedule.issue = 0;
          finish = Schedule.latency config ~vector_len:k slot.Schedule.instr;
        })
      sched
  in
  check_rule "early issue" "raw-hazard" (diags early);
  (* Swap the timing of two identical Vadd slots on the Add FU: the later
     reduction step now pretends to run before its producer rotate. *)
  let adds =
    List.filteri
      (fun _ (s : Schedule.slot) ->
        match s.Schedule.instr with Isa.Vadd (6, 6, 5) -> true | _ -> false)
      sched.Schedule.slots
  in
  Alcotest.(check bool) "fixture has reduction adds" true (List.length adds >= 2);
  let indices =
    List.filteri (fun _ _ -> true) (List.mapi (fun i s -> (i, s)) sched.Schedule.slots)
    |> List.filter_map (fun (i, (s : Schedule.slot)) ->
           match s.Schedule.instr with Isa.Vadd (6, 6, 5) -> Some i | _ -> None)
  in
  let i1 = List.nth indices 0 and i2 = List.nth indices 1 in
  let s1 = List.nth sched.Schedule.slots i1 and s2 = List.nth sched.Schedule.slots i2 in
  let swapped =
    sched
    |> mutate_slot i1 (fun slot ->
           { slot with Schedule.issue = s2.Schedule.issue; finish = s2.Schedule.finish })
    |> mutate_slot i2 (fun slot ->
           { slot with Schedule.issue = s1.Schedule.issue; finish = s1.Schedule.finish })
  in
  Alcotest.(check bool) "swapped slots flagged" false (Diag.is_clean (diags swapped));
  (* Bookkeeping tampering. *)
  check_rule "makespan" "makespan-mismatch"
    (diags { sched with Schedule.makespan = sched.Schedule.makespan + 1 });
  check_rule "fu busy" "fu-busy-mismatch"
    (diags
       {
         sched with
         Schedule.fu_busy =
           (match sched.Schedule.fu_busy with
           | (fu, n) :: rest -> (fu, n + 1) :: rest
           | [] -> assert false);
       });
  check_rule "missing slot" "length-mismatch"
    (diags { sched with Schedule.slots = List.tl sched.Schedule.slots });
  check_rule "foreign instr" "instr-mismatch"
    (diags (mutate_slot 3 (fun slot -> { slot with Schedule.instr = Isa.Delay 0 }) sched));
  (* Finish inconsistent with the latency model. *)
  check_rule "finish" "finish-mismatch"
    (diags (mutate_slot 5 (fun slot -> { slot with Schedule.finish = slot.Schedule.finish - 1 }) sched))

(* --- fuzz property: lint-clean programs execute, and reads/writes match the
   VM's observed register accesses --- *)

let num_regs = 6
let mem_slots = 4
let fuzz_k = 8

let random_instr rng =
  (* Sources lean on the registers the prelude defines (r0..r3) so a useful
     share of programs is lint-clean; destinations roam the whole file, and a
     small defect rate exercises every error rule. *)
  let src () =
    match Rng.int rng 20 with
    | 0 -> num_regs + Rng.int rng 3 (* bad-register *)
    | 1 | 2 -> Rng.int rng num_regs (* possibly uninitialized *)
    | _ -> Rng.int rng 4
  in
  let dst () = if Rng.int rng 20 = 0 then num_regs + Rng.int rng 3 else Rng.int rng num_regs in
  let slot () = if Rng.int rng 20 = 0 then mem_slots else Rng.int rng mem_slots in
  match Rng.int rng 13 with
  | 0 -> Isa.Vadd (dst (), src (), src ())
  | 1 -> Isa.Vsub (dst (), src (), src ())
  | 2 -> Isa.Vmul (dst (), src (), src ())
  | 3 -> Isa.Vhash (dst (), src (), src ())
  | 4 -> Isa.Vntt { dst = dst (); src = src (); inverse = Rng.bool rng }
  | 5 ->
    let tile = if Rng.int rng 8 = 0 then 3 else [| 2; 4; 8 |].(Rng.int rng 3) in
    Isa.Vntt_tiled { dst = dst (); src = src (); tile; inverse = Rng.bool rng }
  | 6 ->
    let perm =
      match Rng.int rng 10 with
      | 0 | 1 -> Array.init fuzz_k (fun _ -> Rng.int rng fuzz_k) (* gather *)
      | 2 -> Array.init fuzz_k (fun i -> if i = 0 then fuzz_k else i) (* bad *)
      | _ ->
        let p = Array.init fuzz_k (fun i -> i) in
        for i = fuzz_k - 1 downto 1 do
          let j = Rng.int rng (i + 1) in
          let t = p.(i) in
          p.(i) <- p.(j);
          p.(j) <- t
        done;
        p
    in
    Isa.Vshuffle (dst (), src (), perm)
  | 7 ->
    let n = if Rng.int rng 20 = 0 then -1 else Rng.int rng (fuzz_k + 1) in
    Isa.Vrotate (dst (), src (), n)
  | 8 ->
    let g = if Rng.int rng 8 = 0 then 3 (* bad for k=8 *) else Rng.int rng 3 in
    Isa.Vinterleave (dst (), src (), g)
  | 9 -> Isa.Vsplat (dst (), Gf.random rng)
  | 10 -> Isa.Vload (dst (), slot ())
  | 11 -> Isa.Vstore (slot (), src ())
  | _ -> Isa.Delay (Rng.int rng 4)

let random_program rng =
  (* Seed some defined registers so not every program trips def-before-use. *)
  let prelude =
    [
      Isa.Vload (0, 0);
      Isa.Vload (1, 1);
      Isa.Vsplat (2, Gf.random rng);
      Isa.Vsplat (3, Gf.random rng);
    ]
  in
  prelude @ List.init (2 + Rng.int rng 10) (fun _ -> random_instr rng)

let fill_vm rng vm =
  for s = 0 to mem_slots - 1 do
    Vm.write_mem vm s (Array.init fuzz_k (fun _ -> Gf.random rng))
  done

let test_fuzz_clean_programs_execute () =
  let rng = Rng.create 2024L in
  let clean_count = ref 0 in
  for trial = 0 to 299 do
    let program = random_program rng in
    let report = Lint.lint ~num_regs ~mem_slots ~vector_len:fuzz_k program in
    if Lint.is_clean report then begin
      incr clean_count;
      let vm = Vm.create ~vector_len:fuzz_k ~num_regs ~mem_slots in
      fill_vm rng vm;
      try Vm.exec vm program
      with Invalid_argument msg ->
        Alcotest.failf "trial %d: lint-clean program raised %S\n%s" trial msg
          (Lint.summary report)
    end
  done;
  (* The generator is seeded; make sure the property is not vacuous. *)
  Alcotest.(check bool)
    (Printf.sprintf "enough clean programs (%d)" !clean_count)
    true (!clean_count >= 30)

let test_fuzz_reads_writes_observed () =
  let rng = Rng.create 4047L in
  let checked = ref 0 in
  for _trial = 0 to 199 do
    let program = random_program rng in
    let report = Lint.lint ~num_regs ~mem_slots ~vector_len:fuzz_k program in
    if Lint.is_clean report then begin
      let vm = Vm.create ~vector_len:fuzz_k ~num_regs ~mem_slots in
      fill_vm rng vm;
      List.iteri
        (fun i instr ->
          incr checked;
          let before = Array.init num_regs (fun r -> Vm.read_reg vm r) in
          (* A shadow VM agreeing with [vm] only on memory and the declared
             source registers: if Isa.reads is complete, the destination value
             cannot differ. *)
          let shadow = Vm.create ~vector_len:fuzz_k ~num_regs ~mem_slots in
          for s = 0 to mem_slots - 1 do
            Vm.write_mem shadow s (Vm.read_mem vm s)
          done;
          let reads = Isa.reads instr in
          for r = 0 to num_regs - 1 do
            if List.mem r reads then Vm.write_reg shadow r before.(r)
            else Vm.write_reg shadow r (Array.init fuzz_k (fun _ -> Gf.random rng))
          done;
          Vm.exec vm [ instr ];
          Vm.exec shadow [ instr ];
          (* Observed register writes are declared by Isa.writes. *)
          let declared = Isa.writes instr in
          for r = 0 to num_regs - 1 do
            if Vm.read_reg vm r <> before.(r) then
              Alcotest.(check (option int))
                (Printf.sprintf "#%d %s: modified r%d must be declared" i
                   (Isa.describe instr) r)
                (Some r) declared
          done;
          (* The declared destination depends only on declared reads. *)
          match declared with
          | Some d ->
            Array.iteri
              (fun lane v ->
                Alcotest.check gf
                  (Printf.sprintf "#%d %s: r%d lane %d from declared reads only" i
                     (Isa.describe instr) d lane)
                  v
                  (Vm.read_reg shadow d).(lane))
              (Vm.read_reg vm d)
          | None -> ())
        program
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "enough instructions checked (%d)" !checked)
    true (!checked >= 200)

(* --- VM error cross-referencing (instruction index + constructor) --- *)

let test_vm_error_index () =
  let vm = Vm.create ~vector_len:8 ~num_regs:4 ~mem_slots:4 in
  (match Vm.exec vm [ Isa.Vsplat (0, Gf.one); Isa.Vload (1, 99) ] with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    let has sub =
      let rec scan i =
        i + String.length sub <= String.length msg
        && (String.sub msg i (String.length sub) = sub || scan (i + 1))
      in
      scan 0
    in
    Alcotest.(check bool) (Printf.sprintf "index in %S" msg) true (has "instruction 1");
    Alcotest.(check bool) (Printf.sprintf "constructor in %S" msg) true (has "(Vload)"));
  (* The index matches what the linter reports for the same defect. *)
  let report =
    Lint.lint ~num_regs:4 ~mem_slots:4 ~vector_len:8
      [ Isa.Vsplat (0, Gf.one); Isa.Vload (1, 99) ]
  in
  match Diag.errors report.Lint.diags with
  | [ d ] -> Alcotest.(check int) "lint anchors to the same index" 1 d.Diag.index
  | ds -> Alcotest.failf "expected one error, got %d" (List.length ds)

(* --- circuit linter: the shipped workloads are its acceptance surface --- *)

let test_circuits_clean () =
  List.iter
    (fun (e : Circuit_corpus.entry) ->
      let inst, asgn = e.Circuit_corpus.generate ~scale:1 in
      let v = Circuit_lint.analyze inst asgn in
      Alcotest.(check bool)
        (e.Circuit_corpus.name ^ " clean: " ^ Circuit_lint.summary v)
        true (Circuit_lint.is_clean v);
      Alcotest.(check int)
        (e.Circuit_corpus.name ^ " no residual freedom")
        0 v.Circuit_lint.probe_free;
      (* The structure report the perf model consumes is internally sound. *)
      let r = Circuit_report.of_instance ~name:e.Circuit_corpus.name inst in
      match Structure.consistent r with
      | Ok () -> ()
      | Error msg ->
        Alcotest.failf "%s report inconsistent: %s" e.Circuit_corpus.name msg)
    Circuit_corpus.entries

(* Every corpus circuit's instance digest at scale 1, pinned. The digest
   hashes each matrix entry by entry, so these bytes guard the gadget
   circuits' row order, the merging of repeated terms and the dropping of
   terms that cancel — the synthetic proof goldens exercise none of
   those. *)
let corpus_digests =
  [
    ("aes128", "e42fc9614875738ce7911ef051f9b8501c9ccb25ef318a1c4f92405d00de4677");
    ("sha256", "5c3e1b04c3c30c57d2585b40aeca36f93944313a7482dd032452b2e05df15f71");
    ("keccak", "72503f1f637cf2d2adb82c7ab3e9c44db8c3a1cdab711b410aa608f7230bbb8b");
    ("cipher", "14e73cf8252b34191ec7f3731dd3851b701cb02552b73f7cc77139ade81b71a9");
    ("modexp", "4a20d8fca9b700185be17e5c6c84a57563743a91fc51cf67ec0039f24c6aca0d");
    ("auction", "0c4b5c14bfa20f0112063f3084f6d2b435508288a4b995a197e86b932f16f078");
    ("ml_inference", "d49877e8b4b12324c504097b50f1a7ce566549dc324b209e6f4d14925615eee3");
    ("verifiable_db", "6abe3a51979d620639c52cb2f3696804b228a5e2b95296cd407efd0bcc0e41a2");
    ("synthetic", "a71203ad44890338a50170fc42cdd8a4c5b460706339ee0067b414f6b4787136");
  ]

let test_corpus_digests () =
  Alcotest.(check (list string)) "every corpus entry is pinned" Circuit_corpus.names
    (List.map fst corpus_digests);
  List.iter
    (fun (e : Circuit_corpus.entry) ->
      let inst, _ = e.Circuit_corpus.generate ~scale:1 in
      Alcotest.(check string) e.Circuit_corpus.name
        (List.assoc e.Circuit_corpus.name corpus_digests)
        (Zk_hash.Keccak.to_hex (Zk_spartan.Spartan.instance_digest inst)))
    Circuit_corpus.entries

(* --- circuit linter: hand-built defects --- *)

let lint_builder f =
  let b = Builder.create () in
  f b;
  let inst, asgn = Builder.finalize b in
  Circuit_lint.lint inst asgn

let test_circuit_lint_detects () =
  (* A witness wire no constraint mentions. *)
  check_rule "unconstrained" "unconstrained-variable"
    (lint_builder (fun b ->
         let x = Builder.witness b (Gf.of_int 3) in
         Gadgets.assert_equal b (Builder.lc_var x)
           (Builder.lc_const (Gf.of_int 3));
         ignore (Builder.witness b (Gf.of_int 7))));
  (* A public input no constraint mentions (warning). *)
  let unused =
    lint_builder (fun b ->
        let x = Builder.witness b (Gf.of_int 3) in
        Gadgets.assert_equal b (Builder.lc_var x)
          (Builder.lc_const (Gf.of_int 3));
        ignore (Builder.input b (Gf.of_int 9)))
  in
  check_rule "unused input" "unused-public-input" unused;
  Alcotest.(check bool) "unused input is advisory" true (Diag.is_clean unused);
  (* The same row twice (exact copy), and once more scaled by 2: the copy is
     a duplicate, the scaled row is canonically equal but raw-different. *)
  let dup =
    lint_builder (fun b ->
        let x = Builder.witness b (Gf.of_int 3) in
        let eq () =
          Builder.constrain b (Builder.lc_var x) (Builder.lc_const Gf.one)
            (Builder.lc_const (Gf.of_int 3))
        in
        eq ();
        eq ();
        Builder.constrain b
          (Builder.lc_scale (Gf.of_int 2) (Builder.lc_var x))
          (Builder.lc_const Gf.one)
          (Builder.lc_const (Gf.of_int 6)))
  in
  check_rule "duplicate" "duplicate-constraint" dup;
  check_rule "redundant" "redundant-constraint" dup;
  (* x is pinned to the literal 3 — a wire that could be folded away. *)
  check_rule "constant" "constant-variable" dup;
  Alcotest.(check bool) "row-redundancy rules are warnings" true
    (Diag.is_clean dup)

let test_unsatisfied_and_trivial () =
  (* Builder.constrain refuses violated constraints, so assemble the broken
     instances directly: side 4 (log_size 2), w = [w0; _], io = [1; _]. *)
  let mk ea eb ec ~nc =
    let m e = Sparse_oracle.of_list ~nrows:4 ~ncols:4 e in
    R1cs.make ~a:(m ea) ~b:(m eb) ~c:(m ec) ~log_size:2 ~num_constraints:nc
      ~num_witness:1 ~num_io:1
  in
  (* w0 * 1 = 5 with w0 = 4. *)
  let bad =
    mk [ (0, 0, Gf.one) ] [ (0, 2, Gf.one) ] [ (0, 2, Gf.of_int 5) ] ~nc:1
  in
  let asgn = Nocap_vec.Fv.of_array [| Gf.of_int 4; Gf.zero; Gf.one; Gf.zero |] in
  check_rule "unsatisfied" "unsatisfied-constraint" (Circuit_lint.lint bad asgn);
  (* Row 1 is declared a real constraint but is completely empty. *)
  let hollow =
    mk [ (0, 0, Gf.one) ] [ (0, 2, Gf.one) ] [ (0, 2, Gf.of_int 5) ] ~nc:2
  in
  let asgn = Nocap_vec.Fv.of_array [| Gf.of_int 5; Gf.zero; Gf.one; Gf.zero |] in
  check_rule "trivial" "trivial-constraint" (Circuit_lint.lint hollow asgn)

(* --- circuit linter: rank-probe behaviour --- *)

let test_rank_probe () =
  (* Booleanity rows are bilinear, so unit propagation cannot touch the bits
     of a decomposition; the Jacobian probe pins every one of them (the
     booleanity derivative 2b - 1 is nonzero on {0,1}). *)
  let b = Builder.create () in
  let v = Builder.input b (Gf.of_int 5) in
  ignore (Gadgets.bits_of b ~width:3 v);
  let inst, asgn = Builder.finalize b in
  let verdict = Circuit_lint.analyze inst asgn in
  Alcotest.(check bool)
    ("bits clean: " ^ Circuit_lint.summary verdict)
    true
    (Circuit_lint.is_clean verdict);
  Alcotest.(check bool) "bits reached the probe" true
    (verdict.Circuit_lint.probe_unknowns >= 3);
  Alcotest.(check int) "bits pinned" 0 verdict.Circuit_lint.probe_free;
  (* One product row over two fresh witnesses keeps a genuine degree of
     freedom: x * y = 6 moves along (dx, dy) = (x, -y). *)
  let b = Builder.create () in
  let x = Builder.witness b (Gf.of_int 2) in
  let y = Builder.witness b (Gf.of_int 3) in
  Builder.constrain b (Builder.lc_var x) (Builder.lc_var y)
    (Builder.lc_const (Gf.of_int 6));
  let inst, asgn = Builder.finalize b in
  let verdict = Circuit_lint.analyze inst asgn in
  check_rule "x*y free" "under-constrained-variable" verdict.Circuit_lint.diags;
  Alcotest.(check bool) "free direction confirmed" true
    (verdict.Circuit_lint.probe_free >= 1);
  (* The default synthetic chain leaves its seed wire a free witness the
     whole chain slides along (the corpus lints the public_seed variant). *)
  let inst, asgn = Synthetic.circuit ~n_constraints:64 ~seed:5L () in
  check_rule "synthetic seed wire" "under-constrained-variable"
    (Circuit_lint.lint inst asgn)

(* --- mutation oracle: every weakening trips its lint rule --- *)

let test_mutation_oracle () =
  let entry =
    match Circuit_corpus.find "auction" with
    | Some e -> e
    | None -> Alcotest.fail "auction entry missing"
  in
  let inst, asgn = entry.Circuit_corpus.generate ~scale:1 in
  let muts = Circuit_mutate.sweep ~seed:31L ~count:40 inst asgn in
  Alcotest.(check bool)
    (Printf.sprintf "sweep produced mutants (%d)" (List.length muts))
    true
    (List.length muts >= 30);
  let kinds = Hashtbl.create 8 in
  List.iter
    (fun (op, mutant) ->
      Hashtbl.replace kinds (Circuit_mutate.op_name op) ();
      Alcotest.(check bool)
        (Circuit_mutate.op_to_string op ^ ": mutant still satisfiable")
        true
        (R1cs.satisfied mutant asgn);
      check_rule
        (Circuit_mutate.op_to_string op)
        (Circuit_mutate.expected_rule op)
        (Circuit_lint.lint mutant asgn))
    muts;
  Alcotest.(check bool)
    (Printf.sprintf "operator diversity (%d kinds)" (Hashtbl.length kinds))
    true
    (Hashtbl.length kinds >= 4)

let test_pinned_corpus () =
  (* `dune runtest` runs in the test directory; `dune exec` from the root. *)
  let path =
    if Sys.file_exists "corpus/circuits/pinned.tsv" then
      "corpus/circuits/pinned.tsv"
    else "test/corpus/circuits/pinned.tsv"
  in
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let cache = Hashtbl.create 8 in
  let generate name =
    match Hashtbl.find_opt cache name with
    | Some v -> v
    | None -> (
      match Circuit_corpus.find name with
      | None -> Alcotest.failf "pinned corpus names unknown circuit %S" name
      | Some e ->
        let v = e.Circuit_corpus.generate ~scale:1 in
        Hashtbl.add cache name v;
        v)
  in
  let replayed = ref 0 in
  List.iter
    (fun line ->
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then
        match String.split_on_char '\t' line with
        | [ name; op_s; rule ] -> (
          let op = Circuit_mutate.op_of_string op_s in
          Alcotest.(check string)
            (op_s ^ " round-trips")
            op_s
            (Circuit_mutate.op_to_string op);
          let inst, asgn = generate name in
          match Circuit_mutate.apply inst asgn op with
          | None ->
            Alcotest.failf "%s %s: pinned operator no longer applicable" name
              op_s
          | Some mutant ->
            Alcotest.(check bool)
              (Printf.sprintf "%s %s: mutant still satisfiable" name op_s)
              true
              (R1cs.satisfied mutant asgn);
            check_rule
              (Printf.sprintf "%s %s" name op_s)
              rule
              (Circuit_lint.lint mutant asgn);
            incr replayed)
        | _ -> Alcotest.failf "malformed pinned corpus line %S" line)
    (List.rev !lines);
  Alcotest.(check bool)
    (Printf.sprintf "pinned corpus is populated (%d replayed)" !replayed)
    true (!replayed >= 20)

(* --- structure reports: closed forms on the band-1 chain --- *)

let test_report_closed_forms () =
  let c = 32 in
  let inst, _ = Synthetic.circuit ~n_constraints:c ~band:1 ~row_nnz:1 ~seed:3L () in
  let r = Circuit_report.of_instance ~name:"chain" inst in
  Alcotest.(check int) "constraints" c r.Circuit_report.num_constraints;
  Alcotest.(check int) "nnz A" c r.Circuit_report.a.Circuit_report.nnz;
  Alcotest.(check int) "nnz B" c r.Circuit_report.b.Circuit_report.nnz;
  Alcotest.(check int) "nnz C" c r.Circuit_report.c.Circuit_report.nnz;
  Alcotest.(check int) "total nnz" (3 * c) r.Circuit_report.total_nnz;
  Alcotest.(check (float 1e-9)) "density" 3.0 r.Circuit_report.density_factor;
  Alcotest.(check int) "rows nonempty" c r.Circuit_report.a.Circuit_report.rows_nonempty;
  Alcotest.(check int) "row nnz max" 1 r.Circuit_report.a.Circuit_report.row_nnz_max;
  Alcotest.(check (float 1e-9)) "row nnz mean" 1.0
    r.Circuit_report.a.Circuit_report.row_nnz_mean;
  (* A and B reference the current wire (diagonal); C the next one over. *)
  Alcotest.(check int) "A band" 0 r.Circuit_report.a.Circuit_report.band_max;
  Alcotest.(check int) "B band" 0 r.Circuit_report.b.Circuit_report.band_max;
  Alcotest.(check int) "C band" 1 r.Circuit_report.c.Circuit_report.band_max;
  Alcotest.(check (float 1e-9)) "C band mean" 1.0
    r.Circuit_report.c.Circuit_report.band_mean;
  Alcotest.(check (float 1e-9)) "band locality" 1.0
    r.Circuit_report.c.Circuit_report.band_within_64;
  (* Wires: w0 in A0/B0 (2 uses), w1..w(c-1) in A/B/C (3 each), wc in C only
     (1); the io constant-one column is live but never referenced. *)
  Alcotest.(check int) "live vars" (c + 2)
    r.Circuit_report.fanout.Circuit_report.live_vars;
  Alcotest.(check int) "unused vars" 1
    r.Circuit_report.fanout.Circuit_report.unused_vars;
  Alcotest.(check int) "fanout max" 3
    r.Circuit_report.fanout.Circuit_report.fanout_max;
  Alcotest.(check (float 1e-9)) "fanout mean"
    (float_of_int (3 * c) /. float_of_int (c + 2))
    r.Circuit_report.fanout.Circuit_report.fanout_mean;
  match Structure.consistent r with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "chain report inconsistent: %s" msg

let test_structure_model () =
  let report n_constraints row_nnz =
    let inst, _ = Synthetic.circuit ~n_constraints ~band:8 ~row_nnz ~seed:9L () in
    Circuit_report.of_instance inst
  in
  let anchor = report 64 2 in
  Alcotest.(check (float 1e-9)) "self density" 1.0
    (Structure.density_relative ~anchor anchor);
  let dense = report 64 5 in
  Alcotest.(check (float 1e-9)) "relative density"
    (dense.Circuit_report.density_factor /. anchor.Circuit_report.density_factor)
    (Structure.density_relative ~anchor dense);
  Alcotest.(check bool) "chain is streamable" true
    (Structure.spmv_streamable anchor);
  Alcotest.(check bool) "zero sparsity bound fails" false
    (Structure.spmv_streamable ~max_row_nnz:0 anchor);
  (match Structure.consistent anchor with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "anchor inconsistent: %s" msg);
  (match
     Structure.consistent
       { anchor with Circuit_report.total_nnz = anchor.Circuit_report.total_nnz + 1 }
   with
  | Ok () -> Alcotest.fail "tampered total_nnz accepted"
  | Error _ -> ());
  Alcotest.(check bool) "report builds a simulator workload" true
    (Structure.workload_of_report ~anchor dense <> []);
  Alcotest.(check bool) "prover estimate positive" true
    (Structure.prover_seconds_of_report ~anchor dense > 0.)

(* --- diag JSON + exit-code contract --- *)

let test_diag_json_roundtrip () =
  let ds =
    [
      Diag.error ~index:3 ~rule:"under-constrained-variable"
        "free direction at z[3]: \"quote\" back\\slash\tand\nnewline";
      Diag.warning ~index:Diag.program_level ~rule:"probe-overflow" "budget";
      Diag.error ~index:0 ~rule:"unsatisfied-constraint" "row 0";
      Diag.warning ~index:7 ~rule:"rule\r" "cr\r, \x01, \b\012 and caf\xc3\xa9";
    ]
  in
  Alcotest.(check bool) "round-trip" true
    (Diag.list_of_json_string (Diag.list_to_json ds) = ds);
  Alcotest.(check bool) "empty round-trip" true
    (Diag.list_of_json_string (Diag.list_to_json []) = []);
  Alcotest.(check int) "clean exit code" 0 (Diag.exit_code []);
  Alcotest.(check int) "under-constrained exit" 21
    (Diag.exit_code [ Diag.error ~index:1 ~rule:"under-constrained-variable" "x" ]);
  (* The lowest code wins when several categories fire at once. *)
  (match Diag.exit_category ds with
  | Some (rule, code) ->
    Alcotest.(check string) "winning rule" "under-constrained-variable" rule;
    Alcotest.(check int) "winning code" 21 code
  | None -> Alcotest.fail "expected an exit category");
  Alcotest.(check int) "unknown rule maps to the reserved code" 41
    (Diag.rule_code "no-such-rule");
  (* A tampered envelope is rejected, not silently accepted. *)
  let expect_bad name s =
    match Diag.list_of_json_string s with
    | _ -> Alcotest.failf "%s accepted" name
    | exception Json_min.Bad_json _ -> ()
  in
  expect_bad "wrong schema" {|{"schema": "bogus/v1", "exit_code": 0, "diags": []}|};
  expect_bad "exit-code mismatch"
    {|{"schema": "nocap-diag/v1", "exit_code": 7, "diags": []}|}

(* The printer and the parser agree: any document — strings over all 256
   byte values, nested arrays and objects, integral and fractional finite
   numbers — reads back as itself. *)
let gen_json =
  QCheck.Gen.(
    let bytes = string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 12) in
    let finite = map (fun f -> if Float.is_finite f then f else 0.5) float in
    let leaf =
      oneof
        [
          return Json_min.Null;
          map (fun b -> Json_min.Bool b) bool;
          map (fun f -> Json_min.Num f) (oneof [ finite; map float_of_int int ]);
          map (fun s -> Json_min.Str s) bytes;
        ]
    in
    sized
      (fix (fun self n ->
           if n = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> Json_min.List l) (list_size (int_bound 4) (self (n / 2))));
                 ( 1,
                   map
                     (fun kvs -> Json_min.Obj kvs)
                     (list_size (int_bound 4) (pair bytes (self (n / 2)))) );
               ])))

let prop_json_round_trip =
  QCheck.Test.make ~count:500 ~name:"Json_min: parse (to_string j) = j"
    (QCheck.make ~print:Json_min.to_string gen_json)
    (fun j -> Json_min.parse_json (Json_min.to_string j) = j)

(* Escapes other printers emit: \uXXXX (surrogate pairs included) decodes
   to UTF-8, non-finite numbers do not print. *)
let test_json_escapes () =
  Alcotest.(check string) "u escapes" "\x01\xc3\xa9\xf0\x9f\x98\x80\r\b\012/"
    (Json_min.as_str (Json_min.parse_json {|"\u0001\u00e9\ud83d\ude00\r\b\f\/"|}));
  List.iter
    (fun bad ->
      match Json_min.parse_json bad with
      | _ -> Alcotest.failf "accepted %s" bad
      | exception Json_min.Bad_json _ -> ())
    [ {|"\ud83d"|}; {|"\ude00"|}; {|"\u12g4"|}; {|"\u12"|}; {|"\x"|} ];
  match Json_min.to_string (Json_min.Num nan) with
  | _ -> Alcotest.fail "printed nan"
  | exception Json_min.Bad_json _ -> ()

(* --- litmus memory discipline: overwritten writes are flagged --- *)

let test_litmus_overwrite_flagged () =
  let open Litmus_circuit in
  let txs =
    [
      { row_a = 0; op_a = Write 5; row_b = 1; op_b = Read };
      { row_a = 0; op_a = Write 9; row_b = 2; op_b = Read };
    ]
  in
  let inst, asgn = Litmus_circuit.circuit ~rows:4 ~transactions:txs ~seed:7L () in
  let diags = Circuit_lint.lint inst asgn in
  Alcotest.(check bool) "overwritten write is not clean" false
    (Diag.is_clean diags);
  Alcotest.(check bool) "flagged as a free written value" true
    (Diag.has_rule "under-constrained-variable" diags
    || Diag.has_rule "unconstrained-variable" diags);
  (* The corpus's write-once batch stays clean. *)
  let txs = Circuit_corpus.litmus_transactions ~rows:8 in
  let inst, asgn = Litmus_circuit.circuit ~rows:8 ~transactions:txs ~seed:7L () in
  Alcotest.(check bool) "write-once batch clean" true
    (Diag.is_clean (Circuit_lint.lint inst asgn))

let suite =
  [
    Alcotest.test_case "kernel programs lint clean" `Quick test_kernels_clean;
    Alcotest.test_case "spmv programs lint clean + compute" `Quick test_spmv_programs_clean;
    Alcotest.test_case "workload spmv programs clean" `Quick test_workload_programs_clean;
    Alcotest.test_case "linter detects injected defects" `Quick test_lint_detects;
    Alcotest.test_case "register pressure accounting" `Quick test_pressure_accounting;
    Alcotest.test_case "kernel schedules check clean" `Quick test_schedules_clean;
    Alcotest.test_case "schedule checker as oracle" `Quick test_check_oracle;
    Alcotest.test_case "fuzz: clean programs execute" `Quick test_fuzz_clean_programs_execute;
    Alcotest.test_case "fuzz: reads/writes observed" `Quick test_fuzz_reads_writes_observed;
    Alcotest.test_case "VM errors carry instruction index" `Quick test_vm_error_index;
    Alcotest.test_case "circuit corpus lints clean" `Slow test_circuits_clean;
    Alcotest.test_case "circuit corpus digests pinned" `Quick test_corpus_digests;
    Alcotest.test_case "circuit linter detects injected defects" `Quick
      test_circuit_lint_detects;
    Alcotest.test_case "circuit linter: unsatisfied and trivial rows" `Quick
      test_unsatisfied_and_trivial;
    Alcotest.test_case "rank probe pins bits, finds free products" `Quick
      test_rank_probe;
    Alcotest.test_case "mutation operators trip their rules" `Quick
      test_mutation_oracle;
    Alcotest.test_case "pinned mutant corpus replays" `Quick test_pinned_corpus;
    Alcotest.test_case "structure report closed forms" `Quick
      test_report_closed_forms;
    Alcotest.test_case "structure feeds the perf model" `Quick
      test_structure_model;
    Alcotest.test_case "diag JSON round-trips" `Quick test_diag_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_json_round_trip;
    Alcotest.test_case "JSON string escapes" `Quick test_json_escapes;
    Alcotest.test_case "litmus overwrite is under-constrained" `Quick
      test_litmus_overwrite_flagged;
  ]
