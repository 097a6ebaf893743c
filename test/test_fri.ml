(* FRI low-degree test: completeness across sizes, rejection of
   out-of-degree claims and tampered proofs — the second hash-based PCS
   demonstrating NoCap's generality claim (Sec. IV-E). *)

module Gf = Zk_field.Gf
module Fri = Zk_orion.Fri
module Transcript = Zk_hash.Transcript
module Rng = Zk_util.Rng

let params = Fri.default_params

let prove_poly ~seed n =
  let rng = Rng.create seed in
  let coeffs = Array.init n (fun _ -> Gf.random rng) in
  let t = Transcript.create "fri-test" in
  (coeffs, Fri.prove params t coeffs)

let verify ~degree_bound proof =
  let t = Transcript.create "fri-test" in
  Fri.verify params t ~degree_bound proof

let test_completeness () =
  List.iter
    (fun n ->
      let _, proof = prove_poly ~seed:(Int64.of_int (700 + n)) n in
      match verify ~degree_bound:n proof with
      | Ok () -> ()
      | Error e -> Alcotest.failf "n=%d: %s" n e)
    [ 1; 2; 8; 64; 256; 1024 ]

let test_constant_poly () =
  let t = Transcript.create "fri-test" in
  let proof = Fri.prove params t [| Gf.of_int 7; Gf.zero; Gf.zero; Gf.zero |] in
  (match verify ~degree_bound:4 proof with
  | Ok () -> ()
  | Error e -> Alcotest.failf "constant: %s" e);
  Alcotest.(check bool) "constant recovered" true
    (Gf.equal proof.Fri.final_constant (Gf.of_int 7))

let test_degree_cheat_rejected () =
  (* A degree-2n polynomial committed against a degree-n bound: forge by
     proving at the larger bound and verifying at the smaller one. *)
  let n = 64 in
  let _, proof = prove_poly ~seed:701L (2 * n) in
  match verify ~degree_bound:n proof with
  | Ok () -> Alcotest.fail "accepted an out-of-degree polynomial"
  | Error _ -> ()

let test_tampered_constant_rejected () =
  let _, proof = prove_poly ~seed:702L 128 in
  let bad = { proof with Fri.final_constant = Gf.add proof.Fri.final_constant Gf.one } in
  match verify ~degree_bound:128 bad with
  | Ok () -> Alcotest.fail "accepted a tampered constant"
  | Error _ -> ()

let test_tampered_layer_rejected () =
  let _, proof = prove_poly ~seed:703L 128 in
  let q = proof.Fri.queries.(3) in
  let a, b, path = q.Fri.layers.(1) in
  q.Fri.layers.(1) <- (Gf.add a Gf.one, b, path);
  (* The changed value changes its leaf, so the path check fails first and
     the error carries its reason. *)
  match verify ~degree_bound:128 proof with
  | Ok () -> Alcotest.fail "accepted a tampered opening"
  | Error e -> Alcotest.(check string) "reason" "query 3 layer 1: bad path: root mismatch" e

let test_wrong_transcript_rejected () =
  let _, proof = prove_poly ~seed:704L 64 in
  let t = Transcript.create "some-other-domain" in
  match Fri.verify params t ~degree_bound:64 proof with
  | Ok () -> Alcotest.fail "accepted under divergent challenges"
  | Error _ -> ()

let test_proof_size () =
  let _, proof = prove_poly ~seed:705L 1024 in
  let sz = Fri.proof_size_bytes proof in
  (* Logarithmic layers x 30 queries x (pair + path): tens of KB, far below
     the committed 4096-point table. *)
  Alcotest.(check bool) (Printf.sprintf "size %d plausible" sz) true
    (sz > 10_000 && sz < 400_000)

let prop_random_sizes =
  QCheck.Test.make ~count:10 ~name:"FRI roundtrip at random sizes"
    QCheck.(int_range 0 7)
    (fun log_n ->
      let n = 1 lsl log_n in
      let _, proof = prove_poly ~seed:(Int64.of_int (800 + log_n)) n in
      match verify ~degree_bound:n proof with Ok () -> true | Error _ -> false)

(* The pre-running-product fold, one inversion per element: the oracle
   for {!Fri.fold}'s inversion-free twiddles. *)
let reference_fold ~shift evals beta =
  let n = Array.length evals in
  let half = n / 2 in
  let rec log2 k = if k = 1 then 0 else 1 + log2 (k / 2) in
  let w = Gf.root_of_unity (log2 n) in
  let inv2 = Gf.inv Gf.two in
  let x = ref shift in
  Array.init half (fun j ->
      let a = evals.(j) and b = evals.(j + half) in
      let even = Gf.mul inv2 (Gf.add a b) in
      let odd = Gf.mul inv2 (Gf.mul (Gf.sub a b) (Gf.inv !x)) in
      let out = Gf.add even (Gf.mul beta odd) in
      x := Gf.mul !x w;
      out)

let prop_fold_vs_reference =
  QCheck.Test.make ~count:60 ~name:"Fri.fold = per-element-inverse fold (plain and coset)"
    QCheck.(triple (int_range 1 12) bool (int_range 0 1_000_000))
    (fun (log_n, coset, seed) ->
      let rng = Rng.create (Int64.of_int seed) in
      let evals = Array.init (1 lsl log_n) (fun _ -> Gf.random rng) in
      let beta = Gf.random rng in
      let shift = if coset then Gf.multiplicative_generator else Gf.one in
      let got = Fri.fold ~shift (Nocap_vec.Fv.of_array evals) beta in
      Nocap_vec.Fv.to_array got = reference_fold ~shift evals beta)

let suite =
  [
    Alcotest.test_case "completeness" `Quick test_completeness;
    Alcotest.test_case "constant polynomial" `Quick test_constant_poly;
    Alcotest.test_case "degree cheat rejected" `Quick test_degree_cheat_rejected;
    Alcotest.test_case "tampered constant rejected" `Quick test_tampered_constant_rejected;
    Alcotest.test_case "tampered layer rejected" `Quick test_tampered_layer_rejected;
    Alcotest.test_case "wrong transcript rejected" `Quick test_wrong_transcript_rejected;
    Alcotest.test_case "proof size" `Quick test_proof_size;
    QCheck_alcotest.to_alcotest prop_random_sizes;
    QCheck_alcotest.to_alcotest prop_fold_vs_reference;
  ]
