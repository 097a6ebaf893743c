(* Coverage for the late additions: the
   divmod and nonzero gadgets, and the PCIe host-integration claim. *)

module Gf = Zk_field.Gf
module Builder = Zk_r1cs.Builder
module Gadgets = Zk_r1cs.Gadgets
module R1cs = Zk_r1cs.R1cs
module Endtoend = Zk_perf.Endtoend
module Rng = Zk_util.Rng

let gf = Alcotest.testable Gf.pp Gf.equal

let test_divmod_gadget () =
  let b = Builder.create () in
  List.iter
    (fun (a, n) ->
      let wa = Builder.witness b (Gf.of_int a) in
      let q, r = Gadgets.divmod b ~width:12 wa n in
      Alcotest.check gf (Printf.sprintf "%d / %d" a n) (Gf.of_int (a / n)) (Builder.value b q);
      Alcotest.check gf (Printf.sprintf "%d mod %d" a n) (Gf.of_int (a mod n)) (Builder.value b r))
    [ (100, 7); (0, 3); (4095, 4095); (50, 100) ];
  let inst, asn = Builder.finalize b in
  Alcotest.(check bool) "satisfied" true (R1cs.satisfied inst asn)

let test_assert_nonzero () =
  let b = Builder.create () in
  Gadgets.assert_nonzero b (Builder.witness b (Gf.of_int 5));
  let inst, asn = Builder.finalize b in
  Alcotest.(check bool) "satisfied" true (R1cs.satisfied inst asn);
  Alcotest.(check bool) "zero rejected at build" true
    (try
       let b2 = Builder.create () in
       Gadgets.assert_nonzero b2 (Builder.witness b2 Gf.zero);
       false
     with Invalid_argument _ -> true);
  (* And a tampered-to-zero wire fails satisfaction. *)
  asn.R1cs.w.(0) <- Gf.zero;
  Alcotest.(check bool) "zero wire unsatisfied" false (R1cs.satisfied inst asn)

let test_pcie_never_bottlenecks () =
  (* Sec. IV-D: 64 GB/s "more than enough to keep NoCap busy" — witness
     upload stays below 2.5% of proving time on every benchmark. *)
  List.iter
    (fun (b : Zk_workloads.Benchmarks.t) ->
      let n = b.Zk_workloads.Benchmarks.r1cs_size in
      let upload = Endtoend.witness_upload_seconds ~n_constraints:n in
      let prove =
        (Nocap_model.Simulator.run Nocap_model.Config.default
           (Nocap_model.Workload.spartan_orion
              ~density:b.Zk_workloads.Benchmarks.density ~n_constraints:n ()))
          .Nocap_model.Simulator.total_seconds
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: upload %.4fs vs prove %.4fs" b.Zk_workloads.Benchmarks.name upload prove)
        true
        (upload < 0.025 *. prove))
    Zk_workloads.Benchmarks.all

let suite =
  [
    Alcotest.test_case "divmod gadget" `Quick test_divmod_gadget;
    Alcotest.test_case "assert_nonzero" `Quick test_assert_nonzero;
    Alcotest.test_case "PCIe never bottlenecks" `Quick test_pcie_never_bottlenecks;
  ]
