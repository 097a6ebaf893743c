(* Sumcheck completeness and soundness tests. *)

module Gf = Zk_field.Gf
module Sumcheck = Zk_sumcheck.Sumcheck
module Transcript = Zk_hash.Transcript
module Mle = Zk_poly.Mle
module Rng = Zk_util.Rng

let gf = Alcotest.testable Gf.pp Gf.equal

let random_table rng l = Array.init (1 lsl l) (fun _ -> Gf.random rng)

(* The one-table degree-1 combiner. *)
let first = Vcomb.vector 1 Vcomb.first

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
          (Mle.eval t v.Sumcheck.point)
          res.Sumcheck.final_values.(j))
      tables;
    res

let test_single_table () =
  (* Listing 1: prove sum of a single multilinear table (degree 1). *)
  let rng = Rng.create 40L in
  let tables = [| random_table rng 5 |] in
  ignore (run_roundtrip ~l:5 ~tables ~comb:(fun v -> v.(0)) ~vcomb:(Vcomb.vector 1 Vcomb.first))

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
  let tables = [| random_table rng 4 |] in
  let claim = Gf.add (sum_over_cube tables (fun v -> v.(0))) Gf.one in
  let pt = Transcript.create "sumcheck-test" in
  let res = Sumcheck.prove pt ~tables:(Sumcheck_oracle.spills tables) ~comb:first in
  let vt = Transcript.create "sumcheck-test" in
  match Sumcheck.verify vt ~degree:1 ~num_vars:4 ~claim res.Sumcheck.proof with
  | Error e ->
    Alcotest.(check string) "category" "sumcheck_mismatch"
      (Zk_pcs.Verify_error.category_name e.Zk_pcs.Verify_error.category)
  | Ok _ -> Alcotest.fail "a wrong claim was accepted"

let test_no_rounds () =
  (* One-element tables: no rounds, and the claim is comb at the point. *)
  let tables = [| [| Gf.of_int 3 |]; [| Gf.of_int 5 |]; [| Gf.of_int 7 |] |] in
  let pt = Transcript.create "sumcheck-test" in
  let res =
    Sumcheck.prove pt ~tables:(Sumcheck_oracle.spills tables)
      ~comb:(Vcomb.vector 3 Vcomb.prod_all)
  in
  Alcotest.check gf "claim" (Gf.of_int 105) res.Sumcheck.claim;
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
         (Gf.mul (Mle.eval tables.(0) v.Sumcheck.point) (Mle.eval tables.(1) v.Sumcheck.point))
         v.Sumcheck.value))

let test_wrong_transcript_rejected () =
  (* Verifier with a different domain gets different challenges; the final
     oracle check then fails (challenge binding). *)
  let rng = Rng.create 45L in
  let tables = [| random_table rng 3 |] in
  let comb v = v.(0) in
  let claim = sum_over_cube tables comb in
  let pt = Transcript.create "sumcheck-test" in
  let res = Sumcheck.prove pt ~tables:(Sumcheck_oracle.spills tables) ~comb:first in
  let vt = Transcript.create "different-domain" in
  match Sumcheck.verify vt ~degree:1 ~num_vars:3 ~claim res.Sumcheck.proof with
  | Error _ -> ()
  | Ok v ->
    Alcotest.(check bool) "divergent challenges break the oracle check" false
      (Gf.equal (Mle.eval tables.(0) v.Sumcheck.point) v.Sumcheck.value)

let test_stats () =
  let rng = Rng.create 46L in
  let l = 6 in
  let tables = [| random_table rng l |] in
  let pt = Transcript.create "sumcheck-test" in
  let res = Sumcheck.prove pt ~tables:(Sumcheck_oracle.spills tables) ~comb:first in
  Alcotest.(check int) "rounds" l res.Sumcheck.stats.Sumcheck.rounds;
  (* Fold multiplications: sum over rounds of half = 2^(l-1) + ... + 1. *)
  Alcotest.(check int) "fold mults" ((1 lsl l) - 1) res.Sumcheck.stats.Sumcheck.mults

let prop_roundtrip_random_degrees =
  QCheck.Test.make ~count:20 ~name:"sumcheck roundtrip across sizes and degrees"
    QCheck.(pair (int_range 1 7) (int_range 1 3))
    (fun (l, k) ->
      let rng = Rng.create (Int64.of_int ((l * 100) + k)) in
      let tables = Array.init k (fun _ -> random_table rng l) in
      let comb v = Array.fold_left Gf.mul Gf.one v in
      let claim = sum_over_cube tables comb in
      let pt = Transcript.create "sumcheck-prop" in
      let res =
        Sumcheck.prove pt ~tables:(Sumcheck_oracle.spills tables)
          ~comb:(Vcomb.vector k Vcomb.prod_all)
      in
      let vt = Transcript.create "sumcheck-prop" in
      match Sumcheck.verify vt ~degree:k ~num_vars:l ~claim res.Sumcheck.proof with
      | Error _ -> false
      | Ok v -> Gf.equal (comb res.Sumcheck.final_values) v.Sumcheck.value)

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
  ]
