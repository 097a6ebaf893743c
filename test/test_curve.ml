(* BLS12-381 G1 group law, Pippenger MSM, and the Groth16 baseline. *)

module Fq = Zk_field.Fq_bls
module Fr = Zk_field.Fr_bls
module G1 = Zk_curve.G1
module Msm = Zk_curve.Msm
module Groth16 = Zk_curve.Groth16
module Rng = Zk_util.Rng

let test_generator_on_curve () =
  Alcotest.(check bool) "generator" true (G1.is_on_curve G1.generator);
  Alcotest.(check bool) "not infinity" false (G1.is_infinity G1.generator)

let test_group_law () =
  let g = G1.generator in
  let g2 = G1.double g in
  Alcotest.(check bool) "2G on curve" true (G1.is_on_curve g2);
  Alcotest.(check bool) "G+G = 2G" true (G1.equal (G1.add g g) g2);
  let g3 = G1.add g2 g in
  Alcotest.(check bool) "2G+G = G+2G" true (G1.equal g3 (G1.add g g2));
  Alcotest.(check bool) "G + inf = G" true (G1.equal (G1.add g G1.infinity) g);
  Alcotest.(check bool) "G + (-G) = inf" true (G1.is_infinity (G1.add g (G1.neg g)));
  Alcotest.(check bool) "assoc" true
    (G1.equal (G1.add (G1.add g g2) g3) (G1.add g (G1.add g2 g3)))

let test_scalar_mul () =
  let g = G1.generator in
  Alcotest.(check bool) "0 * G = inf" true (G1.is_infinity (G1.scalar_mul Fr.zero g));
  Alcotest.(check bool) "1 * G = G" true (G1.equal (G1.scalar_mul Fr.one g) g);
  let five = G1.scalar_mul (Fr.of_int 5) g in
  let by_adds = G1.add g (G1.add g (G1.add g (G1.add g g))) in
  Alcotest.(check bool) "5 * G" true (G1.equal five by_adds);
  (* Group order: r * G = infinity. Exercise via (r-1) * G = -G. *)
  let r_minus_1 = Fr.neg Fr.one in
  Alcotest.(check bool) "(r-1) * G = -G" true
    (G1.equal (G1.scalar_mul r_minus_1 g) (G1.neg g))

let test_scalar_mul_distributes () =
  let rng = Rng.create 70L in
  let a = Fr.random rng and b = Fr.random rng in
  let g = G1.generator in
  Alcotest.(check bool) "(a+b)G = aG + bG" true
    (G1.equal
       (G1.scalar_mul (Fr.add a b) g)
       (G1.add (G1.scalar_mul a g) (G1.scalar_mul b g)))

let test_affine_roundtrip () =
  let rng = Rng.create 71L in
  let p = G1.random rng in
  (match G1.to_affine p with
  | None -> Alcotest.fail "random point was infinity"
  | Some (x, y) ->
    let q = G1.of_affine ~x ~y in
    Alcotest.(check bool) "roundtrip" true (G1.equal p q));
  Alcotest.(check bool) "infinity has no affine form" true
    (G1.to_affine G1.infinity = None)

let test_msm_matches_naive () =
  let rng = Rng.create 72L in
  List.iter
    (fun n ->
      let scalars = Array.init n (fun _ -> Fr.random rng) in
      let points = Array.init n (fun _ -> G1.random rng) in
      let expected = Msm_oracle.naive scalars points in
      Alcotest.(check bool)
        (Printf.sprintf "pippenger n=%d" n)
        true
        (G1.equal expected (Msm.pippenger scalars points));
      Alcotest.(check bool)
        (Printf.sprintf "pippenger window=3 n=%d" n)
        true
        (G1.equal expected (Msm.pippenger ~window:3 scalars points)))
    [ 1; 2; 7; 32 ]

let test_msm_edge_cases () =
  Alcotest.(check bool) "empty" true (G1.is_infinity (Msm.pippenger [||] [||]));
  let rng = Rng.create 73L in
  let p = G1.random rng in
  Alcotest.(check bool) "zero scalars" true
    (G1.is_infinity (Msm.pippenger [| Fr.zero; Fr.zero |] [| p; p |]));
  Alcotest.(check bool) "window sizing monotone" true
    (Msm.window_for 1024 >= Msm.window_for 16);
  Alcotest.(check bool) "adds estimate positive" true
    (Msm.point_adds_estimate ~n:1000 ~window:8 > 0)

(* --- Groth16 --- *)

(* x^3 + x + 5 = out (the classic toy circuit): variables
   [1; out; x; t1 = x*x; t2 = t1*x]. *)
let toy_circuit x =
  let fx = Fr.of_int x in
  let t1 = Fr.mul fx fx in
  let t2 = Fr.mul t1 fx in
  let out = Fr.add t2 (Fr.add fx (Fr.of_int 5)) in
  let circuit =
    {
      Groth16.num_vars = 5;
      num_public = 2;
      constraints =
        [|
          ([ (2, Fr.one) ], [ (2, Fr.one) ], [ (3, Fr.one) ]);
          ([ (3, Fr.one) ], [ (2, Fr.one) ], [ (4, Fr.one) ]);
          ( [ (4, Fr.one); (2, Fr.one); (0, Fr.of_int 5) ],
            [ (0, Fr.one) ],
            [ (1, Fr.one) ] );
        |];
    }
  in
  (circuit, [| Fr.one; out; fx; t1; t2 |])

let test_groth16_completeness () =
  let rng = Rng.create 74L in
  let circuit, z = toy_circuit 3 in
  Alcotest.(check bool) "satisfied" true (Groth16.satisfied circuit z);
  let s = Groth16.setup rng circuit in
  let proof = Groth16.prove rng s circuit z in
  Alcotest.(check bool) "verifies" true
    (Groth16.verify s circuit (Array.sub z 0 2) proof)

let test_groth16_wrong_public_rejected () =
  let rng = Rng.create 75L in
  let circuit, z = toy_circuit 3 in
  let s = Groth16.setup rng circuit in
  let proof = Groth16.prove rng s circuit z in
  let bad_public = [| Fr.one; Fr.of_int 999 |] in
  Alcotest.(check bool) "rejected" false (Groth16.verify s circuit bad_public proof)

let test_groth16_tampered_proof_rejected () =
  let rng = Rng.create 76L in
  let circuit, z = toy_circuit 4 in
  let s = Groth16.setup rng circuit in
  let proof = Groth16.prove rng s circuit z in
  let bad = { proof with Groth16.pi_a = Fr.add proof.Groth16.pi_a Fr.one } in
  Alcotest.(check bool) "rejected" false (Groth16.verify s circuit (Array.sub z 0 2) bad)

let test_groth16_unsatisfied_rejected () =
  let rng = Rng.create 77L in
  let circuit, z = toy_circuit 3 in
  z.(3) <- Fr.of_int 999;
  let s = Groth16.setup rng circuit in
  Alcotest.(check bool) "prove raises" true
    (try
       ignore (Groth16.prove rng s circuit z);
       false
     with Invalid_argument _ -> true)

let test_groth16_randomized_proofs_differ () =
  (* Zero-knowledge randomization: two proofs of the same statement differ. *)
  let rng = Rng.create 78L in
  let circuit, z = toy_circuit 3 in
  let s = Groth16.setup rng circuit in
  let p1 = Groth16.prove rng s circuit z in
  let p2 = Groth16.prove rng s circuit z in
  Alcotest.(check bool) "different pi_a" false (Fr.equal p1.Groth16.pi_a p2.Groth16.pi_a);
  Alcotest.(check bool) "both verify" true
    (Groth16.verify s circuit (Array.sub z 0 2) p1
    && Groth16.verify s circuit (Array.sub z 0 2) p2)

let test_groth16_larger_circuit () =
  (* Chain of squarings: exercises a 64-point NTT domain. *)
  let rng = Rng.create 79L in
  let n = 40 in
  let vals = Array.make (n + 2) Fr.one in
  vals.(1) <- Fr.of_int 7;
  for i = 2 to n + 1 do
    vals.(i) <- Fr.mul vals.(i - 1) vals.(i - 1)
  done;
  (* Shift so variable 0 is the constant 1, x is public. *)
  let z = Array.init (n + 2) (fun i -> if i = 0 then Fr.one else vals.(i)) in
  let constraints =
    Array.init n (fun i ->
        ([ (i + 1, Fr.one) ], [ (i + 1, Fr.one) ], [ (i + 2, Fr.one) ]))
  in
  let circuit = { Groth16.num_vars = n + 2; num_public = 2; constraints } in
  Alcotest.(check bool) "satisfied" true (Groth16.satisfied circuit z);
  Alcotest.(check int) "domain" 64 (Groth16.domain_size circuit);
  let s = Groth16.setup rng circuit in
  let proof = Groth16.prove rng s circuit z in
  Alcotest.(check bool) "verifies" true
    (Groth16.verify s circuit (Array.sub z 0 2) proof)

let test_workload_model () =
  let w = Groth16.prover_workload ~n:1000 in
  Alcotest.(check int) "ntt points" (7 * 1024) w.Groth16.ntt_points;
  Alcotest.(check int) "g1 points" 3000 w.Groth16.msm_g1_points;
  Alcotest.(check int) "g2 points" 1000 w.Groth16.msm_g2_points

let suite =
  [
    Alcotest.test_case "generator on curve" `Quick test_generator_on_curve;
    Alcotest.test_case "group law" `Quick test_group_law;
    Alcotest.test_case "scalar multiplication" `Quick test_scalar_mul;
    Alcotest.test_case "scalar mul distributes" `Quick test_scalar_mul_distributes;
    Alcotest.test_case "affine roundtrip" `Quick test_affine_roundtrip;
    Alcotest.test_case "MSM matches naive" `Quick test_msm_matches_naive;
    Alcotest.test_case "MSM edge cases" `Quick test_msm_edge_cases;
    Alcotest.test_case "Groth16 completeness" `Quick test_groth16_completeness;
    Alcotest.test_case "Groth16 wrong public" `Quick test_groth16_wrong_public_rejected;
    Alcotest.test_case "Groth16 tampered proof" `Quick test_groth16_tampered_proof_rejected;
    Alcotest.test_case "Groth16 unsatisfied witness" `Quick test_groth16_unsatisfied_rejected;
    Alcotest.test_case "Groth16 proofs randomized" `Quick test_groth16_randomized_proofs_differ;
    Alcotest.test_case "Groth16 larger circuit" `Quick test_groth16_larger_circuit;
    Alcotest.test_case "Groth16 workload model" `Quick test_workload_model;
  ]
