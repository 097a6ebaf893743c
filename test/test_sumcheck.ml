(* Sumcheck completeness and soundness tests. *)

module Gf = Zk_field.Gf
module Sumcheck = Zk_sumcheck.Sumcheck
module Transcript = Zk_hash.Transcript
module Mle = Zk_poly.Mle
module Rng = Zk_util.Rng

let gf = Alcotest.testable Gf.pp Gf.equal

let random_table rng l = Array.init (1 lsl l) (fun _ -> Gf.random rng)

(* A table's sum over the cube, as the [Product] with the all-ones table. *)
let with_ones t = [| t; Array.make (Array.length t) Gf.one |]

let product v = Gf.mul v.(0) v.(1)

let sum_over_cube tables comb =
  let n = Array.length tables.(0) in
  let acc = ref Gf.zero in
  for b = 0 to n - 1 do
    acc := Gf.add !acc (comb (Array.map (fun t -> t.(b)) tables))
  done;
  !acc

(* [comb] is the scalar form (claims and checks), [vcomb] the vector form
   the prover takes. *)
let run_roundtrip ~l ~tables ~comb ~vcomb =
  let degree = Sumcheck.degree vcomb in
  let claim = sum_over_cube tables comb in
  let pt = Transcript.create "sumcheck-test" in
  let res = Sumcheck.prove pt ~tables:(Sumcheck_oracle.spills tables) ~comb:vcomb in
  Alcotest.check gf "claim is the sum over the cube" claim res.Sumcheck.claim;
  let vt = Transcript.create "sumcheck-test" in
  match Sumcheck.verify vt ~degree ~num_vars:l ~claim res.Sumcheck.proof with
  | Error e -> Alcotest.failf "verify failed: %s" (Zk_pcs.Verify_error.to_string e)
  | Ok v ->
    (* Challenges derived by both sides must agree (same transcript). *)
    Array.iteri
      (fun i r -> Alcotest.check gf (Printf.sprintf "challenge %d" i) r v.Sumcheck.point.(i))
      res.Sumcheck.challenges;
    (* The reduced claim matches comb of the tables' MLEs at the point. *)
    Alcotest.check gf "final claim" (comb res.Sumcheck.final_values) v.Sumcheck.value;
    (* And final_values really are the MLE evaluations. *)
    Array.iteri
      (fun j t ->
        Alcotest.check gf
          (Printf.sprintf "table %d folded correctly" j)
          (Mle_oracle.eval t v.Sumcheck.point)
          res.Sumcheck.final_values.(j))
      tables;
    res

let test_single_table () =
  (* Listing 1: prove the sum of a single multilinear table, as its
     product with the all-ones table. *)
  let rng = Rng.create 40L in
  ignore
    (run_roundtrip ~l:5 ~tables:(with_ones (random_table rng 5)) ~comb:product
       ~vcomb:Sumcheck.Product)

let test_product_of_two () =
  let rng = Rng.create 41L in
  let tables = [| random_table rng 4; random_table rng 4 |] in
  ignore
    (run_roundtrip ~l:4 ~tables ~comb:(fun v -> Gf.mul v.(0) v.(1)) ~vcomb:Sumcheck.Product)

let test_spartan_shape () =
  (* The degree-3 Spartan combination eq * (az * bz - cz). *)
  let rng = Rng.create 42L in
  let tables = Array.init 4 (fun _ -> random_table rng 6) in
  ignore
    (run_roundtrip ~l:6 ~tables ~comb:Sumcheck_oracle.spartan_comb_scalar
       ~vcomb:Sumcheck.Eq_abc)

let test_wrong_claim_rejected () =
  (* An honest proof checked against claim + 1: round 0's g(0) + g(1) is
     the true sum, so the verifier rejects it at once. *)
  let rng = Rng.create 43L in
  let tables = with_ones (random_table rng 4) in
  let claim = Gf.add (sum_over_cube tables product) Gf.one in
  let pt = Transcript.create "sumcheck-test" in
  let res =
    Sumcheck.prove pt ~tables:(Sumcheck_oracle.spills tables) ~comb:Sumcheck.Product
  in
  let vt = Transcript.create "sumcheck-test" in
  match Sumcheck.verify vt ~degree:2 ~num_vars:4 ~claim res.Sumcheck.proof with
  | Error e ->
    Alcotest.(check string) "category" "sumcheck_mismatch"
      (Zk_pcs.Verify_error.category_name e.Zk_pcs.Verify_error.category)
  | Ok _ -> Alcotest.fail "a wrong claim was accepted"

let test_no_rounds () =
  (* One-element tables: no rounds, and the claim is comb at the point. *)
  let tables = Array.map (fun x -> [| Gf.of_int x |]) [| 3; 5; 7; 2 |] in
  let pt = Transcript.create "sumcheck-test" in
  let res =
    Sumcheck.prove pt ~tables:(Sumcheck_oracle.spills tables) ~comb:Sumcheck.Eq_abc
  in
  Alcotest.check gf "claim" (Gf.of_int 99) res.Sumcheck.claim;
  Alcotest.(check int) "rounds" 0 (Array.length res.Sumcheck.proof.Sumcheck.round_polys);
  let vt = Transcript.create "sumcheck-test" in
  match Sumcheck.verify vt ~degree:3 ~num_vars:0 ~claim:res.Sumcheck.claim res.Sumcheck.proof with
  | Error e -> Alcotest.failf "verify failed: %s" (Zk_pcs.Verify_error.to_string e)
  | Ok v ->
    Alcotest.check gf "value" res.Sumcheck.claim v.Sumcheck.value;
    Alcotest.check gf "transcripts agree" (Transcript.challenge_gf pt "after")
      (Transcript.challenge_gf vt "after")

let test_tampered_round_rejected () =
  let rng = Rng.create 44L in
  let tables = [| random_table rng 4; random_table rng 4 |] in
  let comb v = Gf.mul v.(0) v.(1) in
  let claim = sum_over_cube tables comb in
  let pt = Transcript.create "sumcheck-test" in
  let res = Sumcheck.prove pt ~tables:(Sumcheck_oracle.spills tables) ~comb:Sumcheck.Product in
  let proof = res.Sumcheck.proof in
  proof.Sumcheck.round_polys.(2).(1) <- Gf.add proof.Sumcheck.round_polys.(2).(1) Gf.one;
  let vt = Transcript.create "sumcheck-test" in
  (match Sumcheck.verify vt ~degree:2 ~num_vars:4 ~claim proof with
  | Error _ -> ()
  | Ok v ->
    Alcotest.(check bool) "tampered proof must not survive oracle check" false
      (Gf.equal
         (Gf.mul
            (Mle_oracle.eval tables.(0) v.Sumcheck.point)
            (Mle_oracle.eval tables.(1) v.Sumcheck.point))
         v.Sumcheck.value))

let test_wrong_transcript_rejected () =
  (* Verifier with a different domain gets different challenges; the final
     oracle check then fails (challenge binding). *)
  let rng = Rng.create 45L in
  let tables = with_ones (random_table rng 3) in
  let claim = sum_over_cube tables product in
  let pt = Transcript.create "sumcheck-test" in
  let res =
    Sumcheck.prove pt ~tables:(Sumcheck_oracle.spills tables) ~comb:Sumcheck.Product
  in
  let vt = Transcript.create "different-domain" in
  match Sumcheck.verify vt ~degree:2 ~num_vars:3 ~claim res.Sumcheck.proof with
  | Error _ -> ()
  | Ok v ->
    Alcotest.(check bool) "divergent challenges break the oracle check" false
      (Gf.equal
         (product (Array.map (fun t -> Mle_oracle.eval t v.Sumcheck.point) tables))
         v.Sumcheck.value)

let test_stats () =
  let rng = Rng.create 46L in
  let l = 6 in
  let tables = [| random_table rng l; random_table rng l |] in
  let pt = Transcript.create "sumcheck-test" in
  let res =
    Sumcheck.prove pt ~tables:(Sumcheck_oracle.spills tables) ~comb:Sumcheck.Product
  in
  Alcotest.(check int) "rounds" l res.Sumcheck.stats.Sumcheck.rounds;
  (* Per pair, one multiplication at each of the 3 points and one per
     table to fold; the pairs over the rounds are 2^(l-1) + ... + 1. *)
  Alcotest.(check int) "mults" (5 * ((1 lsl l) - 1)) res.Sumcheck.stats.Sumcheck.mults

(* [c] picks the combiner: [Product] (degree 2), [Eq_abc] (degree 3) or a
   batch of [c - 1] instances. *)
let prop_roundtrip_random_degrees =
  QCheck.Test.make ~count:20 ~name:"sumcheck roundtrip across sizes and degrees"
    QCheck.(pair (int_range 1 7) (int_range 0 3))
    (fun (l, c) ->
      let rng = Rng.create (Int64.of_int ((l * 100) + c)) in
      let vcomb, comb, k =
        match c with
        | 0 -> (Sumcheck.Product, product, 2)
        | 1 -> (Sumcheck.Eq_abc, Sumcheck_oracle.spartan_comb_scalar, 4)
        | _ ->
          let rho = Array.init (c - 1) (fun _ -> Gf.random rng) in
          (Sumcheck.Eq_abc_batch rho, Sumcheck_oracle.eq_abc_batch_scalar rho, 1 + (3 * (c - 1)))
      in
      let tables = Array.init k (fun _ -> random_table rng l) in
      let claim = sum_over_cube tables comb in
      let pt = Transcript.create "sumcheck-prop" in
      let res = Sumcheck.prove pt ~tables:(Sumcheck_oracle.spills tables) ~comb:vcomb in
      let vt = Transcript.create "sumcheck-prop" in
      let degree = Sumcheck.degree vcomb in
      match Sumcheck.verify vt ~degree ~num_vars:l ~claim res.Sumcheck.proof with
      | Error _ -> false
      | Ok v -> Gf.equal (comb res.Sumcheck.final_values) v.Sumcheck.value)

(* The verifier's barycentric evaluator against naive Lagrange, at every
   degree 1..8: at a random point and at each node. *)
let prop_eval_round_poly =
  QCheck.Test.make ~count:30 ~name:"eval_round_poly = naive Lagrange (degrees 1..8, nodes)"
    QCheck.small_nat
    (fun seed ->
      let rng = Rng.create (Int64.of_int (seed + 500)) in
      List.for_all
        (fun d ->
          let g = Array.init (d + 1) (fun _ -> Gf.random rng) in
          let points = Gf.random rng :: List.init (d + 1) Gf.of_int in
          List.for_all
            (fun r -> Gf.equal (Sumcheck.eval_round_poly g r) (Lagrange_oracle.eval g r))
            points)
        (List.init 8 succ))

(* The weights from their definition: w_i * prod_{j <> i} (i - j) = 1,
   and one table per degree, not one per call. *)
let test_round_weights () =
  for d = 0 to 8 do
    let w = Sumcheck.round_weights d in
    Alcotest.(check int) "length" (d + 1) (Array.length w);
    Array.iteri
      (fun i wi ->
        let den = ref Gf.one in
        for j = 0 to d do
          if j <> i then den := Gf.mul !den (Gf.of_int (i - j))
        done;
        Alcotest.check gf (Printf.sprintf "d=%d i=%d" d i) Gf.one (Gf.mul wi !den))
      w;
    Alcotest.(check bool) "kept per degree" true (w == Sumcheck.round_weights d)
  done;
  Alcotest.check_raises "negative degree"
    (Invalid_argument "Sumcheck.round_weights: negative degree") (fun () ->
      ignore (Sumcheck.round_weights (-1)))

(* Tabulate a coefficient-form polynomial at the nodes 0..d; the evaluator
   must give back its Horner value anywhere. *)
let prop_eval_round_poly_recovers =
  QCheck.Test.make ~count:30
    ~name:"eval_round_poly recovers a degree-d polynomial from its node values"
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (Int64.of_int (seed + 700)) in
      List.for_all
        (fun d ->
          let coeffs = Array.init (d + 1) (fun _ -> Gf.random rng) in
          let horner x = Array.fold_right (fun c acc -> Gf.add c (Gf.mul acc x)) coeffs Gf.zero in
          let g = Array.init (d + 1) (fun i -> horner (Gf.of_int i)) in
          let r = Gf.random rng in
          Gf.equal (Sumcheck.eval_round_poly g r) (horner r))
        (List.init 8 succ))

let suite =
  [
    Alcotest.test_case "single table (Listing 1)" `Quick test_single_table;
    Alcotest.test_case "product of two" `Quick test_product_of_two;
    Alcotest.test_case "Spartan-shaped degree 3" `Quick test_spartan_shape;
    Alcotest.test_case "wrong claim rejected" `Quick test_wrong_claim_rejected;
    Alcotest.test_case "no rounds: claim is comb at the point" `Quick test_no_rounds;
    Alcotest.test_case "tampered round rejected" `Quick test_tampered_round_rejected;
    Alcotest.test_case "wrong transcript rejected" `Quick test_wrong_transcript_rejected;
    Alcotest.test_case "prover stats" `Quick test_stats;
    QCheck_alcotest.to_alcotest prop_roundtrip_random_degrees;
    QCheck_alcotest.to_alcotest prop_eval_round_poly;
    Alcotest.test_case "round weights" `Quick test_round_weights;
    QCheck_alcotest.to_alcotest prop_eval_round_poly_recovers;
  ]
