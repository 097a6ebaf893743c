(* The grand-product argument: completeness, the reduced-claim contract,
   rejection of forged products, and end-to-end use against an Orion
   commitment (the SPARK-style composition). *)

module Gf = Zk_field.Gf
module Gp = Grand_product
module Sumcheck = Zk_sumcheck.Sumcheck
module Mle = Zk_poly.Mle
module Orion = Zk_orion.Orion
module Transcript = Zk_hash.Transcript
module Rng = Zk_util.Rng

let gf = Alcotest.testable Gf.pp Gf.equal

let random_vec rng n = Array.init n (fun _ -> Gf.add Gf.one (Gf.random rng))

let test_completeness () =
  List.iter
    (fun l ->
      let rng = Rng.create (Int64.of_int (900 + l)) in
      let v = random_vec rng (1 lsl l) in
      let expected = Array.fold_left Gf.mul Gf.one v in
      let pt = Transcript.create "gp-test" in
      let product, proof, claim = Gp.prove pt v in
      Alcotest.check gf (Printf.sprintf "product l=%d" l) expected product;
      let vt = Transcript.create "gp-test" in
      match Gp.verify vt ~num_vars:l ~product proof with
      | Error e -> Alcotest.failf "l=%d: %s" l (Zk_pcs.Verify_error.to_string e)
      | Ok rc ->
        (* The verifier-derived claim matches the prover's... *)
        Alcotest.check gf "claim value" claim.Gp.value rc.Gp.value;
        Array.iteri
          (fun i x -> Alcotest.check gf "claim point" x rc.Gp.point.(i))
          claim.Gp.point;
        (* ...and really is the input vector's MLE at that point. *)
        Alcotest.check gf "claim correct" (Mle_oracle.eval v rc.Gp.point) rc.Gp.value)
    [ 0; 1; 2; 4; 7; 10 ]

let test_forged_product_rejected () =
  let rng = Rng.create 910L in
  let l = 6 in
  let v = random_vec rng (1 lsl l) in
  let pt = Transcript.create "gp-test" in
  let product, proof, _ = Gp.prove pt v in
  let vt = Transcript.create "gp-test" in
  match Gp.verify vt ~num_vars:l ~product:(Gf.add product Gf.one) proof with
  | Error _ -> ()
  | Ok rc ->
    (* If the rounds happen to pass, the final oracle check must not. *)
    Alcotest.(check bool) "oracle check fails" false
      (Gf.equal (Mle_oracle.eval v rc.Gp.point) rc.Gp.value)

let test_tampered_halves_rejected () =
  let rng = Rng.create 911L in
  let l = 5 in
  let v = random_vec rng (1 lsl l) in
  let pt = Transcript.create "gp-test" in
  let product, proof, _ = Gp.prove pt v in
  let p0, p1 = proof.Gp.layer_claims.(2) in
  proof.Gp.layer_claims.(2) <- (Gf.add p0 Gf.one, p1);
  let vt = Transcript.create "gp-test" in
  match Gp.verify vt ~num_vars:l ~product proof with
  | Error _ -> ()
  | Ok rc ->
    Alcotest.(check bool) "oracle check fails" false
      (Gf.equal (Mle_oracle.eval v rc.Gp.point) rc.Gp.value)

let test_with_orion_commitment () =
  (* The SPARK composition: the vector is committed, the grand product is
     proven, and the reduced claim is discharged with an Orion opening. *)
  let rng = Rng.create 912L in
  let l = 8 in
  let v = random_vec rng (1 lsl l) in
  let params = { Orion.default_params with Orion.rows = 8 } in
  let committed, cm = Orion.commit params rng v in
  let pt = Transcript.create "gp-orion" in
  Orion.absorb_commitment pt cm;
  let product, gp_proof, claim = Gp.prove pt v in
  let value, opening = Orion.prove_eval params committed pt claim.Gp.point in
  Alcotest.check gf "opening equals reduced claim" claim.Gp.value value;
  (* Verifier side. *)
  let vt = Transcript.create "gp-orion" in
  Orion.absorb_commitment vt cm;
  (match Gp.verify vt ~num_vars:l ~product gp_proof with
  | Error e -> Alcotest.failf "gp: %s" (Zk_pcs.Verify_error.to_string e)
  | Ok rc -> (
    match Orion.verify_eval params cm vt rc.Gp.point rc.Gp.value opening with
    | Ok () -> ()
    | Error e -> Alcotest.failf "opening: %s" (Zk_pcs.Verify_error.to_string e)))

let prop_roundtrip =
  QCheck.Test.make ~count:20 ~name:"grand product roundtrip"
    QCheck.(pair (int_range 1 8) small_nat)
    (fun (l, seed) ->
      let rng = Rng.create (Int64.of_int ((seed * 131) + l)) in
      let v = random_vec rng (1 lsl l) in
      let pt = Transcript.create "gp-prop" in
      let product, proof, _ = Gp.prove pt v in
      let vt = Transcript.create "gp-prop" in
      match Gp.verify vt ~num_vars:l ~product proof with
      | Error _ -> false
      | Ok rc -> Gf.equal (Mle_oracle.eval v rc.Gp.point) rc.Gp.value)

(* Golden proof bytes: the product, every layer's half-claims and sumcheck
   round polynomials, and the reduced claim, hashed with SHA3-256. Pins the
   argument's transcript traffic and arithmetic across refactors of its
   dataflow. *)
let test_golden () =
  let module Codec = Zk_pcs.Codec in
  List.iter
    (fun (l, expected) ->
      let v = random_vec (Rng.create (Int64.of_int (920 + l))) (1 lsl l) in
      let product, proof, claim = Gp.prove (Transcript.create "gp-golden") v in
      let buf = Buffer.create 4096 in
      Codec.put_gf buf product;
      Array.iter (fun (p0, p1) -> Codec.put_gf_array buf [| p0; p1 |]) proof.Gp.layer_claims;
      Array.iter
        (fun (sc : Sumcheck.proof) ->
          Array.iter (Codec.put_gf_array buf) sc.Sumcheck.round_polys)
        proof.Gp.sumchecks;
      Codec.put_gf_array buf claim.Gp.point;
      Codec.put_gf buf claim.Gp.value;
      Alcotest.(check string)
        (Printf.sprintf "l=%d" l)
        expected
        Zk_hash.Keccak.(to_hex (sha3_256 (Buffer.to_bytes buf))))
    [
      (1, "3a3209e4694161536854ebad9a6dc294f4b4ccbc625b6b154610b7fd6672ad54");
      (5, "ee1d9810b2279f804cc425b75c91d37138c76e8a07cb05cb1435f378b33f4a2e");
      (11, "e4150af5e38ba67fb35291369b4c3721197a886aeda2366389bcf55eba5582de");
    ]

let suite =
  [
    Alcotest.test_case "completeness" `Quick test_completeness;
    Alcotest.test_case "forged product rejected" `Quick test_forged_product_rejected;
    Alcotest.test_case "tampered halves rejected" `Quick test_tampered_halves_rejected;
    Alcotest.test_case "with Orion commitment" `Quick test_with_orion_commitment;
    Alcotest.test_case "proof golden" `Quick test_golden;
    QCheck_alcotest.to_alcotest prop_roundtrip;
  ]
