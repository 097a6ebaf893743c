(* NoCap accelerator model tests: timing calibration against the paper's
   published numbers, area/power models, the ISA-level VM, and the static
   scheduler. *)

module Config = Nocap_model.Config
module Workload = Nocap_model.Workload
module Simulator = Nocap_model.Simulator
module Area = Nocap_model.Area
module Power = Nocap_model.Power
module Isa = Nocap_model.Isa
module Vm = Nocap_model.Vm
module Schedule = Nocap_model.Schedule
module Kernels = Nocap_model.Kernels
module Gf = Zk_field.Gf
module Rng = Zk_util.Rng

let gf = Alcotest.testable Gf.pp Gf.equal

let close ?(tol = 0.02) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s (expected %.4g, got %.4g)" msg expected actual)
    true
    (abs_float (actual -. expected) <= tol *. abs_float expected)

let default_run n = Simulator.run Config.default (Workload.spartan_orion ~n_constraints:n ())

let test_table4_calibration () =
  (* AES: 16M constraints -> 151.3 ms (Table IV). *)
  let r = default_run 16.0e6 in
  close ~tol:0.01 "AES proving time" 0.1513 r.Simulator.total_seconds;
  (* Linear scaling over the relevant range (Sec. VIII-B). *)
  let r2 = default_run 32.0e6 in
  close ~tol:0.001 "linear scaling" (2.0 *. r.Simulator.total_seconds) r2.Simulator.total_seconds

let test_fig6a_breakdown () =
  let r = default_run 16.0e6 in
  (* ~70% sumcheck, 9% RS, 12% poly, 5% merkle, 0.5% spmv (Fig. 6a). *)
  close ~tol:0.08 "sumcheck share" 0.72 (Simulator.task_fraction r Workload.Sumcheck);
  close ~tol:0.05 "reed-solomon share" 0.09 (Simulator.task_fraction r Workload.Reed_solomon);
  close ~tol:0.05 "poly share" 0.12 (Simulator.task_fraction r Workload.Poly_arith);
  close ~tol:0.05 "merkle share" 0.05 (Simulator.task_fraction r Workload.Merkle_tree);
  close ~tol:0.2 "spmv share" 0.005 (Simulator.task_fraction r Workload.Spmv);
  (* Sumcheck dominates traffic too (Fig. 6b); spmv is ~1%. *)
  Alcotest.(check bool) "sumcheck traffic dominant" true
    (Simulator.traffic_fraction r Workload.Sumcheck > 0.5);
  Alcotest.(check bool) "spmv traffic tiny" true
    (Simulator.traffic_fraction r Workload.Spmv < 0.02);
  (* "Overall utilization of compute resources is 60%". *)
  close ~tol:0.05 "compute utilization" 0.60 r.Simulator.compute_utilization

let test_recompute_ablation () =
  (* Sec. VIII-C: recomputation improves NoCap by 1.1x and cuts sumcheck
     traffic by 31%. *)
  let on = default_run 16.0e6 in
  let off =
    Simulator.run Config.default
      (Workload.spartan_orion ~recompute:false ~n_constraints:16.0e6 ())
  in
  close ~tol:0.02 "1.1x speedup" 1.10 (off.Simulator.total_seconds /. on.Simulator.total_seconds);
  let traffic r =
    let t = List.find (fun (x : Simulator.task_timing) -> x.Simulator.task = Workload.Sumcheck) r.Simulator.tasks in
    t.Simulator.hbm_bytes
  in
  close ~tol:0.02 "31% sumcheck traffic cut" 0.69 (traffic on /. traffic off)

let test_area_table2 () =
  let b = Area.of_config Config.default in
  close ~tol:0.001 "NTT FU" 1.80 b.Area.ntt_fu;
  close ~tol:0.001 "Multiply FU" 6.34 b.Area.mul_fu;
  close ~tol:0.001 "Add FU" 0.96 b.Area.add_fu;
  close ~tol:0.001 "Hash FU" 0.84 b.Area.hash_fu;
  close ~tol:0.01 "compute total" 9.95 (Area.compute_total b);
  close ~tol:0.001 "regfile" 6.01 b.Area.regfile;
  close ~tol:0.001 "Benes" 0.11 b.Area.benes;
  close ~tol:0.001 "memory interface" 29.80 b.Area.mem_interface;
  close ~tol:0.01 "total" 45.87 (Area.total b);
  (* Scaling: halving arith lanes halves their area; 2 TB/s needs 4 PHYs. *)
  let half = Config.scale_fu Config.default `Arith 0.5 in
  close ~tol:0.01 "half mul area" 3.17 (Area.of_config half).Area.mul_fu;
  let big_bw = Config.scale_hbm Config.default 2.0 in
  close ~tol:0.01 "4 PHYs at 2 TB/s" 59.6 (Area.of_config big_bw).Area.mem_interface

let test_power_fig5 () =
  let r = default_run 16.0e6 in
  let p = Power.of_result r in
  close ~tol:0.05 "62 W total" 62.0 (Power.total p);
  let fu, rf, hbm = Power.fractions p in
  close ~tol:0.15 "FU share 13%" 0.13 fu;
  close ~tol:0.08 "regfile share 44%" 0.44 rf;
  close ~tol:0.08 "HBM share 42%" 0.42 hbm

let test_sensitivity_directions () =
  (* Fig. 7: decreasing any resource degrades performance quickly; increasing
     past the chosen point helps little. *)
  let base = (default_run 16.0e6).Simulator.total_seconds in
  let time cfg =
    (Simulator.run cfg (Workload.spartan_orion ~n_constraints:16.0e6 ())).Simulator.total_seconds
  in
  let arith_half = time (Config.scale_fu Config.default `Arith 0.5) in
  let arith_double = time (Config.scale_fu Config.default `Arith 2.0) in
  Alcotest.(check bool) "halving arith hurts a lot" true (arith_half > 1.4 *. base);
  Alcotest.(check bool) "doubling arith helps little" true
    (arith_double > 0.75 *. base && arith_double < base);
  let hbm_half = time (Config.scale_hbm Config.default 0.5) in
  Alcotest.(check bool) "halving HBM hurts" true (hbm_half > 1.15 *. base);
  let hash_half = time (Config.scale_fu Config.default `Hash 0.5) in
  Alcotest.(check bool) "halving hash hurts mildly" true
    (hash_half > base && hash_half < arith_half);
  (* Register file: growing is free, shrinking spills (Sec. VIII-D). *)
  let rf_double = time (Config.scale_regfile Config.default 2.0) in
  close ~tol:0.001 "bigger regfile: no change" base rf_double;
  let rf_half = time (Config.scale_regfile Config.default 0.5) in
  Alcotest.(check bool) "smaller regfile degrades drastically" true (rf_half > 1.2 *. base)

let test_expander_ablation () =
  (* Replacing Reed-Solomon with the expander code makes encoding
     memory-bound and slows the accelerator substantially (Sec. II). *)
  let rs = default_run 16.0e6 in
  let exp_r =
    Simulator.run Config.default
      (Workload.spartan_orion ~code:`Expander ~n_constraints:16.0e6 ())
  in
  Alcotest.(check bool) "expander slower" true
    (exp_r.Simulator.total_seconds > 1.3 *. rs.Simulator.total_seconds);
  let enc = List.find (fun (t : Simulator.task_timing) -> t.Simulator.task = Workload.Reed_solomon) exp_r.Simulator.tasks in
  Alcotest.(check bool) "encoding memory-bound" true (enc.Simulator.bound_by = Simulator.Hbm)

(* --- ISA-level VM and scheduler --- *)

let test_vm_elementwise () =
  let k = 64 in
  let vm = Vm.create ~vector_len:k ~num_regs:8 ~mem_slots:4 in
  let rng = Rng.create 80L in
  let a = Array.init k (fun _ -> Gf.random rng) in
  let b = Array.init k (fun _ -> Gf.random rng) in
  Vm.write_mem vm 0 a;
  Vm.write_mem vm 1 b;
  Vm.exec vm Kernels.elementwise_mul.Kernels.program;
  let out = Vm.read_mem vm Kernels.elementwise_mul.Kernels.output_slot in
  Array.iteri (fun i x -> Alcotest.check gf "product" (Gf.mul a.(i) b.(i)) x) out

let test_vm_sumcheck_round () =
  let k = 128 in
  let vm = Vm.create ~vector_len:k ~num_regs:8 ~mem_slots:8 in
  let rng = Rng.create 81L in
  let lo = Array.init k (fun _ -> Gf.random rng) in
  let hi = Array.init k (fun _ -> Gf.random rng) in
  let r = Gf.random rng in
  Vm.write_mem vm 0 lo;
  Vm.write_mem vm 1 hi;
  Vm.write_mem vm 4 (Array.make k r);
  Vm.exec vm (Kernels.sumcheck_round ~vector_len:k).Kernels.program;
  let g0 = (Vm.read_mem vm 2).(0) and g1 = (Vm.read_mem vm 3).(0) in
  Alcotest.check gf "g(0) = sum of low half" (Array.fold_left Gf.add Gf.zero lo) g0;
  Alcotest.check gf "g(1) = sum of high half" (Array.fold_left Gf.add Gf.zero hi) g1;
  let folded = Vm.read_mem vm 5 in
  Array.iteri
    (fun i x ->
      Alcotest.check gf "fold" (Gf.add lo.(i) (Gf.mul r (Gf.sub hi.(i) lo.(i)))) x)
    folded

let test_vm_merkle_level () =
  let k = 64 in
  (* 16 digests of 4 lanes each -> 8 parent digests. *)
  let vm = Vm.create ~vector_len:k ~num_regs:8 ~mem_slots:4 in
  let rng = Rng.create 82L in
  let leaves = Array.init k (fun _ -> Gf.random rng) in
  Vm.write_mem vm 0 leaves;
  Vm.exec vm (Kernels.merkle_level ~vector_len:k).Kernels.program;
  let out = Vm.read_mem vm 1 in
  let digest_of_group v g =
    let bytes = Bytes.create 32 in
    for i = 0 to 3 do
      Bytes.set_int64_le bytes (8 * i) (Gf.to_int64 v.((4 * g) + i))
    done;
    Bytes.unsafe_to_string bytes
  in
  for parent = 0 to (k / 8) - 1 do
    let expected =
      Keccak_oracle.sha3_256
        (Bytes.of_string
           (digest_of_group leaves (2 * parent) ^ digest_of_group leaves ((2 * parent) + 1)))
    in
    for i = 0 to 3 do
      Alcotest.check gf
        (Printf.sprintf "parent %d word %d" parent i)
        (Gf.of_int64 (String.get_int64_le expected (8 * i)))
        out.((4 * parent) + i)
    done
  done

let test_vm_poly_mul () =
  let k = 32 in
  let vm = Vm.create ~vector_len:k ~num_regs:8 ~mem_slots:4 in
  let rng = Rng.create 83L in
  let a = Array.init k (fun _ -> Gf.random rng) in
  let b = Array.init k (fun _ -> Gf.random rng) in
  Vm.write_mem vm 0 a;
  Vm.write_mem vm 1 b;
  Vm.exec vm Kernels.poly_mul_cyclic.Kernels.program;
  let out = Vm.read_mem vm 2 in
  for i = 0 to k - 1 do
    let expected = ref Gf.zero in
    for j = 0 to k - 1 do
      expected := Gf.add !expected (Gf.mul a.(j) b.((i - j + k) mod k))
    done;
    Alcotest.check gf (Printf.sprintf "conv %d" i) !expected out.(i)
  done

let test_interleave_perm () =
  let perm = Isa.interleave_perm ~len:16 ~group:1 in
  (* Chunks of 2: [c0 c1 c2 c3 c4 c5 c6 c7] -> [c0 c2 c4 c6 c1 c3 c5 c7]. *)
  Alcotest.(check (array int)) "group 1"
    [| 0; 1; 4; 5; 8; 9; 12; 13; 2; 3; 6; 7; 10; 11; 14; 15 |]
    perm;
  (* Always a permutation. *)
  let p = Isa.interleave_perm ~len:64 ~group:2 in
  let seen = Array.make 64 false in
  Array.iter (fun i -> seen.(i) <- true) p;
  Alcotest.(check bool) "bijective" true (Array.for_all Fun.id seen)

let test_schedule () =
  let k = 2048 in
  let kern = Kernels.sumcheck_round ~vector_len:k in
  let sched = Schedule.run Config.default ~vector_len:k kern.Kernels.program in
  Alcotest.(check bool) "positive makespan" true (sched.Schedule.makespan > 0);
  (* Data dependencies respected: each instruction issues no earlier than the
     finish of the producers of its sources. *)
  let finish_of = Hashtbl.create 16 in
  List.iter
    (fun (s : Schedule.slot) ->
      List.iter
        (fun r ->
          match Hashtbl.find_opt finish_of r with
          | Some f -> Alcotest.(check bool) "RAW respected" true (s.Schedule.issue >= f)
          | None -> ())
        (Isa.reads s.Schedule.instr);
      match Isa.writes s.Schedule.instr with
      | Some d -> Hashtbl.replace finish_of d s.Schedule.finish
      | None -> ())
    sched.Schedule.slots;
  (* Occupancy model: a 2048-element Vmul on 2048 lanes takes 1 cycle;
     a Vhash (128 lanes) takes 16. *)
  Alcotest.(check int) "vmul occupancy" 1
    (Schedule.occupancy Config.default ~vector_len:k (Isa.Vmul (0, 1, 2)));
  Alcotest.(check int) "vhash occupancy" 16
    (Schedule.occupancy Config.default ~vector_len:k (Isa.Vhash (0, 1, 2)));
  (* Halving the hash lanes doubles Vhash occupancy. *)
  Alcotest.(check int) "vhash occupancy scales" 32
    (Schedule.occupancy (Config.scale_fu Config.default `Hash 0.5) ~vector_len:k
       (Isa.Vhash (0, 1, 2)))

let test_schedule_vs_naive_serial () =
  (* Static scheduling should beat naive serial issue (overlap across FUs). *)
  let k = 2048 in
  let prog =
    [
      Isa.Vload (0, 0);
      Isa.Vload (1, 1);
      Isa.Vmul (2, 0, 0);
      Isa.Vhash (3, 1, 1);
      (* independent of the multiply *)
      Isa.Vstore (2, 2);
      Isa.Vstore (3, 3);
    ]
  in
  let sched = Schedule.run Config.default ~vector_len:k prog in
  let serial =
    List.fold_left
      (fun acc i -> acc + Schedule.latency Config.default ~vector_len:k i)
      0 prog
  in
  Alcotest.(check bool) "overlap shortens the schedule" true
    (sched.Schedule.makespan < serial)

let suite =
  [
    Alcotest.test_case "Table IV calibration" `Quick test_table4_calibration;
    Alcotest.test_case "Fig 6a breakdown" `Quick test_fig6a_breakdown;
    Alcotest.test_case "recompute ablation" `Quick test_recompute_ablation;
    Alcotest.test_case "Table II area" `Quick test_area_table2;
    Alcotest.test_case "Fig 5 power" `Quick test_power_fig5;
    Alcotest.test_case "Fig 7 sensitivity directions" `Quick test_sensitivity_directions;
    Alcotest.test_case "expander ablation" `Quick test_expander_ablation;
    Alcotest.test_case "VM elementwise" `Quick test_vm_elementwise;
    Alcotest.test_case "VM sumcheck round" `Quick test_vm_sumcheck_round;
    Alcotest.test_case "VM merkle level" `Quick test_vm_merkle_level;
    Alcotest.test_case "VM poly mul" `Quick test_vm_poly_mul;
    Alcotest.test_case "interleave permutation" `Quick test_interleave_perm;
    Alcotest.test_case "static scheduler" `Quick test_schedule;
    Alcotest.test_case "schedule overlaps FUs" `Quick test_schedule_vs_naive_serial;
  ]
