(* Workload circuit generators: each must produce a satisfied instance whose
   software reference matches the circuit semantics, and the density ordering
   must match the calibrated factors. *)

module Gf = Zk_field.Gf
module R1cs = Zk_r1cs.R1cs
module Benchmarks = Zk_workloads.Benchmarks
module Cipher = Zk_workloads.Cipher
module Keccak_circuit = Zk_workloads.Keccak_circuit
module Modexp = Zk_workloads.Modexp
module Litmus = Zk_workloads.Litmus_circuit
module Synthetic = Zk_workloads.Synthetic
module Spartan = Zk_spartan.Spartan
module Rng = Zk_util.Rng

let check_satisfied name (inst, asn) =
  Alcotest.(check bool) (name ^ " satisfied") true (R1cs.satisfied inst asn);
  (inst, asn)

let test_cipher_reference () =
  (* The nonlinear S-box must actually be nonlinear and a fixed point of
     nothing trivial; spot check a couple of known compositions. *)
  let plaintext = Array.init 16 (fun i -> (i * 17) land 0xff) in
  let keys = [| Array.make 16 0 |] in
  let once = Cipher.reference ~plaintext ~keys in
  Alcotest.(check bool) "permutation changes state" true (once <> plaintext);
  (* XOR with the same key twice via two rounds differs from zero rounds
     (rounds also substitute and mix). *)
  let twice = Cipher.reference ~plaintext ~keys:[| Array.make 16 0; Array.make 16 0 |] in
  Alcotest.(check bool) "two rounds differ from one" true (once <> twice)

let test_cipher_circuit () =
  let inst, asn = check_satisfied "cipher" (Cipher.circuit ~rounds:3 ~blocks:2 ~seed:1L ()) in
  Alcotest.(check bool) "nontrivial size" true (inst.R1cs.num_constraints > 1000);
  (* Tampering with a witness key bit must break satisfaction. *)
  Nocap_vec.Fv.set asn 3 (Gf.sub Gf.one (Nocap_vec.Fv.get asn 3));
  Alcotest.(check bool) "tampered key fails" false (R1cs.satisfied inst asn)

let test_keccak_reference_vs_circuit () =
  (* The builder recomputes the same values as the reference: circuit outputs
     are constrained against reference outputs inside [circuit], so a
     satisfied instance proves agreement. *)
  ignore (check_satisfied "keccak" (Keccak_circuit.circuit ~rounds:4 ~blocks:1 ~seed:2L ()))

let test_keccak_reference_diffusion () =
  let st = Array.make 25 0 in
  let st' = Array.copy st in
  st'.(7) <- 1;
  let out = Keccak_circuit.reference ~rounds:4 ~lane_bits:8 st in
  let out' = Keccak_circuit.reference ~rounds:4 ~lane_bits:8 st' in
  let diff = ref 0 in
  Array.iteri (fun i a -> if a <> out'.(i) then incr diff) out;
  Alcotest.(check bool) "single-bit flip diffuses widely" true (!diff > 12)

let test_modexp () =
  Alcotest.(check int) "3^17 mod 1000004..." (Modexp.reference ~x:3 ~e:17 ~n:3329)
    (let rec pow acc k = if k = 0 then acc else pow (acc * 3 mod 3329) (k - 1) in
     pow 1 17);
  ignore (check_satisfied "modexp" (Modexp.circuit ~instances:2 ~seed:3L ()))

let test_auction () =
  let inst, asn =
    check_satisfied "auction" (Zk_workloads.Auction_circuit.circuit ~bids:10 ~seed:4L ())
  in
  (* The winning price is the last public input. *)
  Alcotest.(check bool) "has public output" true (inst.R1cs.num_io >= 2);
  ignore asn

let test_litmus () =
  let rng = Rng.create 5L in
  let txs = Litmus.random_transactions rng ~rows:8 ~count:6 in
  Alcotest.(check int) "tx count" 6 (List.length txs);
  ignore (check_satisfied "litmus" (Litmus.circuit ~rows:8 ~transactions:txs ~seed:6L ()));
  (* apply: writes land, reads do not. *)
  let st = [| 1; 2; 3 |] in
  let out =
    Litmus.apply st
      [ { Litmus.row_a = 0; op_a = Litmus.Write 9; row_b = 2; op_b = Litmus.Read } ]
  in
  Alcotest.(check (array int)) "apply" [| 9; 2; 3 |] out

let test_synthetic () =
  let inst, asn =
    check_satisfied "synthetic" (Synthetic.circuit ~n_constraints:500 ~seed:7L ())
  in
  Alcotest.(check int) "constraint count" 500 inst.R1cs.num_constraints;
  ignore asn;
  (* Band structure: nonzeros stay near the diagonal. *)
  let max_band, _ = Zk_r1cs.Sparse.bandwidth_profile inst.R1cs.a in
  Alcotest.(check bool) "banded" true (max_band < 600);
  (* Density knob widens rows. *)
  let dense, _ = Synthetic.circuit ~n_constraints:500 ~row_nnz:6 ~seed:8L () in
  Alcotest.(check bool) "row_nnz increases density" true
    (Benchmarks.measured_density dense > Benchmarks.measured_density inst)

let test_benchmark_table () =
  Alcotest.(check int) "five benchmarks" 5 (List.length Benchmarks.all);
  let aes = Benchmarks.find "aes" in
  Alcotest.(check bool) "AES is 16M" true (aes.Benchmarks.r1cs_size = 16.0e6);
  Alcotest.(check bool) "Auction densest" true
    (List.for_all
       (fun (b : Benchmarks.t) ->
         b.Benchmarks.density <= (Benchmarks.find "auction").Benchmarks.density)
       Benchmarks.all);
  (* Every generator yields a satisfiable instance at small scale. *)
  List.iter
    (fun (b : Benchmarks.t) ->
      let inst, asn = b.Benchmarks.generate 2 in
      Alcotest.(check bool) (b.Benchmarks.name ^ " generates") true (R1cs.satisfied inst asn))
    Benchmarks.all

let test_generators_density_ordering () =
  (* Every generated matrix averages at least one nonzero per row, and the
     gadget circuits (packing rows, comparators) are denser than the sparse
     synthetic chains. *)
  let density (b : Benchmarks.t) scale =
    let inst, _ = b.Benchmarks.generate scale in
    Benchmarks.measured_density inst
  in
  List.iter
    (fun (b : Benchmarks.t) ->
      Alcotest.(check bool) (b.Benchmarks.name ^ " has nonzeros") true (density b 4 > 0.9))
    Benchmarks.all;
  let sparse, _ = Synthetic.circuit ~n_constraints:300 ~row_nnz:1 ~seed:99L () in
  Alcotest.(check bool) "gadget circuits denser than sparse synthetic" true
    (density (Benchmarks.find "auction") 16 > Benchmarks.measured_density sparse)

let test_workload_proves () =
  (* End to end: a workload circuit through the real SNARK. *)
  let inst, asn = Modexp.circuit ~instances:1 ~seed:9L () in
  let proof, _ = Spartan.prove Spartan.test_params inst asn in
  match Spartan.verify Spartan.test_params inst ~io:(R1cs.public_io inst asn) proof with
  | Ok () -> ()
  | Error e -> Alcotest.failf "modexp proof failed: %s" (Zk_pcs.Verify_error.to_string e)

let suite =
  [
    Alcotest.test_case "cipher reference" `Quick test_cipher_reference;
    Alcotest.test_case "cipher circuit" `Quick test_cipher_circuit;
    Alcotest.test_case "keccak circuit" `Quick test_keccak_reference_vs_circuit;
    Alcotest.test_case "keccak diffusion" `Quick test_keccak_reference_diffusion;
    Alcotest.test_case "modexp" `Quick test_modexp;
    Alcotest.test_case "auction" `Quick test_auction;
    Alcotest.test_case "litmus" `Quick test_litmus;
    Alcotest.test_case "synthetic" `Quick test_synthetic;
    Alcotest.test_case "benchmark table" `Quick test_benchmark_table;
    Alcotest.test_case "density ordering" `Quick test_generators_density_ordering;
    Alcotest.test_case "workload proves end-to-end" `Quick test_workload_proves;
  ]
