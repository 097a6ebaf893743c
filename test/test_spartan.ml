(* End-to-end Spartan+Orion SNARK tests: completeness on real circuits,
   rejection of every kind of forgery we can construct. *)

module Gf = Zk_field.Gf
module Spartan = Zk_spartan.Spartan
module Builder = Zk_r1cs.Builder
module Gadgets = Zk_r1cs.Gadgets
module R1cs = Zk_r1cs.R1cs
module Rng = Zk_util.Rng

let params = Spartan.test_params

(* x * y = product, x + y = sum, with (product, sum) public. *)
let factor_circuit x y =
  let b = Builder.create () in
  let vx = Builder.witness b (Gf.of_int x) in
  let vy = Builder.witness b (Gf.of_int y) in
  let prod = Builder.input b (Gf.of_int (x * y)) in
  let sum = Builder.input b (Gf.of_int (x + y)) in
  Builder.constrain b (Builder.lc_var vx) (Builder.lc_var vy) (Builder.lc_var prod);
  Builder.constrain b
    (Builder.lc_add (Builder.lc_var vx) (Builder.lc_var vy))
    (Builder.lc_var Builder.one)
    (Builder.lc_var sum);
  Builder.finalize b

(* A deeper circuit: prove knowledge of a satisfying assignment to a chain of
   multiply/add/compare gadgets. *)
let chain_circuit seed steps =
  let rng = Rng.create (Int64.of_int seed) in
  let b = Builder.create () in
  let cur = ref (Builder.witness b (Gf.of_int (2 + Rng.int rng 100))) in
  for _ = 1 to steps do
    let other = Builder.witness b (Gf.of_int (1 + Rng.int rng 100)) in
    cur :=
      (match Rng.int rng 3 with
      | 0 -> Gadgets.mul b !cur other
      | 1 -> Gadgets.add b !cur other
      | _ -> Gadgets.select b ~cond:(Gadgets.is_zero b other) !cur other)
  done;
  let out = Builder.input b (Builder.value b !cur) in
  Gadgets.assert_equal b (Builder.lc_var !cur) (Builder.lc_var out);
  Builder.finalize b

let prove_verify inst asn =
  let proof, _stats = Spartan.prove params inst asn in
  Spartan.verify params inst ~io:(R1cs.public_io inst asn) proof

let test_completeness_small () =
  let inst, asn = factor_circuit 3 5 in
  match prove_verify inst asn with
  | Ok () -> ()
  | Error e -> Alcotest.failf "verify failed: %s" (Zk_pcs.Verify_error.to_string e)

let test_completeness_chain () =
  List.iter
    (fun steps ->
      let inst, asn = chain_circuit steps steps in
      match prove_verify inst asn with
      | Ok () -> ()
      | Error e -> Alcotest.failf "steps=%d: %s" steps (Zk_pcs.Verify_error.to_string e))
    [ 5; 40; 200 ]

let test_completeness_multirep () =
  (* The paper's 3-repetition soundness amplification. *)
  let params3 = { params with Spartan.repetitions = 3 } in
  let inst, asn = chain_circuit 7 30 in
  let proof, _ = Spartan.prove params3 inst asn in
  match Spartan.verify params3 inst ~io:(R1cs.public_io inst asn) proof with
  | Ok () -> ()
  | Error e -> Alcotest.failf "3-rep verify failed: %s" (Zk_pcs.Verify_error.to_string e)

let test_completeness_default_rows () =
  (* Paper configuration: 128 Orion rows, real circuit padded to 2^11. *)
  let params128 =
    { Spartan.pcs = Zk_orion.Orion.default_params; repetitions = 1 }
  in
  let inst, asn = chain_circuit 11 300 in
  let proof, _ = Spartan.prove params128 inst asn in
  match Spartan.verify params128 inst ~io:(R1cs.public_io inst asn) proof with
  | Ok () -> ()
  | Error e -> Alcotest.failf "128-row verify failed: %s" (Zk_pcs.Verify_error.to_string e)

let test_wrong_io_rejected () =
  let inst, asn = factor_circuit 3 5 in
  let proof, _ = Spartan.prove params inst asn in
  let io = R1cs.public_io inst asn in
  io.(1) <- Gf.of_int 16;
  (* claim the product is 16 *)
  match Spartan.verify params inst ~io proof with
  | Ok () -> Alcotest.fail "accepted proof for wrong public input"
  | Error _ -> ()

let test_unsatisfied_rejected_at_prove () =
  let b = Builder.create () in
  let x = Builder.witness b (Gf.of_int 3) in
  Builder.constrain b (Builder.lc_var x) (Builder.lc_var x) (Builder.lc_const (Gf.of_int 9));
  let inst, asn = Builder.finalize b in
  Nocap_vec.Fv.set asn 0 (Gf.of_int 4);
  Alcotest.(check bool) "prove raises" true
    (try
       ignore (Spartan.prove params inst asn);
       false
     with Invalid_argument _ -> true)

let test_tampered_proof_rejected () =
  let inst, asn = chain_circuit 3 20 in
  let io = R1cs.public_io inst asn in
  let tamper_and_check name mutate =
    let proof, _ = Spartan.prove params inst asn in
    mutate proof;
    match Spartan.verify params inst ~io proof with
    | Ok () -> Alcotest.failf "accepted proof with tampered %s" name
    | Error _ -> ()
  in
  tamper_and_check "va" (fun p ->
      let rep = p.Spartan.reps.(0) in
      p.Spartan.reps.(0) <- { rep with Spartan.va = Gf.add rep.Spartan.va Gf.one });
  tamper_and_check "vw" (fun p ->
      let rep = p.Spartan.reps.(0) in
      p.Spartan.reps.(0) <- { rep with Spartan.vw = Gf.add rep.Spartan.vw Gf.one });
  tamper_and_check "sc1 round" (fun p ->
      let g = p.Spartan.reps.(0).Spartan.sc1.Zk_sumcheck.Sumcheck.round_polys.(0) in
      g.(0) <- Gf.add g.(0) Gf.one);
  tamper_and_check "sc2 round" (fun p ->
      let g = p.Spartan.reps.(0).Spartan.sc2.Zk_sumcheck.Sumcheck.round_polys.(0) in
      g.(2) <- Gf.add g.(2) Gf.one);
  tamper_and_check "orion u" (fun p ->
      let u = p.Spartan.reps.(0).Spartan.w_open.Zk_orion.Orion.u in
      Nocap_vec.Fv.set u 0 (Gf.add (Nocap_vec.Fv.get u 0) Gf.one))

let test_proof_for_different_instance_rejected () =
  (* A proof for (3,5) must not verify against the instance for (2,8),
     which has different public io but identical circuit shape. *)
  let inst1, asn1 = factor_circuit 3 5 in
  let inst2, asn2 = factor_circuit 2 8 in
  let proof, _ = Spartan.prove params inst1 asn1 in
  match Spartan.verify params inst2 ~io:(R1cs.public_io inst2 asn2) proof with
  | Ok () -> Alcotest.fail "accepted proof against different public input"
  | Error _ -> ()

let test_proof_size_positive () =
  let inst, asn = chain_circuit 9 50 in
  let proof, _ = Spartan.prove params inst asn in
  let sz = Spartan.proof_size_bytes params proof in
  Alcotest.(check bool) "positive and plausible" true (sz > 1000);
  (* 3 repetitions triple (almost) the proof size. *)
  let params3 = { params with Spartan.repetitions = 3 } in
  let proof3, _ = Spartan.prove params3 inst asn in
  let sz3 = Spartan.proof_size_bytes params3 proof3 in
  Alcotest.(check bool) "3 reps bigger" true (sz3 > 2 * sz)

let test_stats_populated () =
  let inst, asn = chain_circuit 5 60 in
  let _, stats = Spartan.prove params inst asn in
  Alcotest.(check bool) "sumcheck mults" true (stats.Spartan.sumcheck_mults > 0);
  Alcotest.(check bool) "spmv mults" true (stats.Spartan.spmv_mults >= 2 * R1cs.nnz inst);
  Alcotest.(check bool) "hashes" true (stats.Spartan.transcript_hashes > 0)

(* The instance digest is absorbed first into every prover and verifier
   transcript, so its bytes are part of the proof-format contract: the
   hashed layout ("r1cs:<log_size>:", then per matrix its tag and one
   (row, col, value) triple of little-endian int64s per nonzero) must not
   drift. *)
let test_instance_digest_pinned () =
  let check name inst expected =
    Alcotest.(check string) name expected (Zk_hash.Keccak.to_hex inst.R1cs.digest)
  in
  let synthetic, _ = Zk_workloads.Synthetic.circuit ~n_constraints:200 ~seed:7L () in
  check "synthetic n=200 seed=7" synthetic
    "611768fb5ea43e0bf46ec1f70b44f43b6820b06fc7d9b1019031076f1863b9ec";
  let auction, _ = Zk_workloads.Auction_circuit.circuit ~bids:4 ~seed:11L () in
  check "auction bids=4 seed=11" auction
    "2e028fdd78c79bca1ed7e9a5b7920e3ccaf600a9b35fc10695e3e1fa0862bbcd"

(* The digest [R1cs.make] stores is the one the oracle recomputes from the
   matrices, for every shipped generator and for a lint mutant (a circuit
   built from another's entries, through [make]). *)
let test_instance_digest_oracle () =
  let check name inst =
    Alcotest.(check string) name
      (Zk_hash.Keccak.to_hex (R1cs_oracle.instance_digest inst))
      (Zk_hash.Keccak.to_hex inst.R1cs.digest)
  in
  List.iter
    (fun (b : Zk_workloads.Benchmarks.t) ->
      check b.Zk_workloads.Benchmarks.name (fst (b.Zk_workloads.Benchmarks.generate 1)))
    Zk_workloads.Benchmarks.all;
  let inst, asn = Zk_workloads.Auction_circuit.circuit ~bids:4 ~seed:11L () in
  match Nocap_analysis.Circuit_mutate.random (Rng.create 5L) inst asn with
  | None -> Alcotest.fail "no applicable mutation"
  | Some (op, mutant) ->
    check (Nocap_analysis.Circuit_mutate.op_to_string op) mutant;
    Alcotest.(check bool) "the mutant's digest differs" false
      (String.equal inst.R1cs.digest mutant.R1cs.digest)

let prop_random_circuits_roundtrip =
  QCheck.Test.make ~count:10 ~name:"random circuits prove and verify"
    QCheck.(int_range 1 80)
    (fun steps ->
      let inst, asn = chain_circuit (steps * 13) steps in
      match prove_verify inst asn with Ok () -> true | Error _ -> false)

(* A random instance for the M~ checks, [2^l] square: up to [per_row]
   entries per row in each matrix (8 at [l = 10], so the pool splits the
   one-block window), one column left empty in all three and one column
   dense in A. *)
let random_m_instance ~l seed =
  let rng = Rng.create (Int64.of_int seed) in
  let n = 1 lsl l in
  let per_row = if l >= 10 then 8 else 1 + Rng.int rng 4 in
  let empty = Rng.int rng n and dense = Rng.int rng n in
  let matrix ~dense_col =
    let entries = ref [] in
    for r = 0 to n - 1 do
      if dense_col then entries := (r, dense, Gf.random rng) :: !entries;
      for _ = 1 to Rng.int rng (per_row + 1) do
        entries := (r, Rng.int rng n, Gf.random rng) :: !entries
      done
    done;
    let entries = List.filter (fun (_, c, _) -> c <> empty) !entries in
    Sparse_oracle.of_list ~nrows:n ~ncols:n entries
  in
  let a = matrix ~dense_col:true and b = matrix ~dense_col:false in
  let c = matrix ~dense_col:false in
  let inst =
    R1cs.make ~a ~b ~c ~log_size:l ~num_constraints:n ~num_witness:(n / 2) ~num_io:1
  in
  let rx = Array.init l (fun _ -> Gf.random rng) in
  let r_abc = Array.init 3 (fun _ -> Gf.random rng) in
  (inst, rx, r_abc)

(* The dense definition of the second sumcheck's table:
   sum_x eq(r_x, x) * (rA * A + rB * B + rC * C)(x, .). *)
let dense_m inst rx r_abc =
  let eq = Zk_poly.Mle.eq_table rx in
  let acc = Array.make (R1cs.size inst) Gf.zero in
  List.iteri
    (fun k m ->
      Array.iteri
        (fun y v -> acc.(y) <- Gf.add acc.(y) (Gf.mul r_abc.(k) v))
        (Sparse_oracle.spmv_transpose m eq))
    [ inst.R1cs.a; inst.R1cs.b; inst.R1cs.c ];
  acc

(* fill_m against [dense_m] for no budget (one RAM block) and budgets of
   spilled blocks of 1, 3, 1024 and n rows (8 bytes a row, half the
   budget), x domains {1, 2}; [l = 1] leaves r_x's high half empty. *)
let fill_m_matches_dense ~l seed =
  let inst, rx, r_abc = random_m_instance ~l seed in
  let n = R1cs.size inst in
  let expected = dense_m inst rx r_abc in
  List.for_all
    (fun (budget, domains) ->
      let m =
        Nocap_parallel.Pool.with_domains domains (fun () ->
            Spartan.fill_m ~budget inst ~rx ~r_abc)
      in
      let got = Nocap_vec.Spill.to_fv m in
      Nocap_vec.Spill.free m;
      Array.for_all2 Gf.equal expected (Nocap_vec.Fv.to_array got)
      || QCheck.Test.fail_reportf "seed %d, log_size %d: budget=%s domains=%d" seed l
           (match budget with None -> "none" | Some b -> string_of_int b)
           domains)
    (List.concat_map
       (fun budget -> List.map (fun d -> (budget, d)) [ 1; 2 ])
       (None :: List.map (fun rows -> Some (16 * rows)) [ 1; 3; 1024; n ]))

let test_fill_m_edges () =
  List.iter
    (fun l -> Alcotest.(check bool) "fill_m = dense" true (fill_m_matches_dense ~l 7))
    [ 1; 2; 10 ]

let prop_fill_m_dense =
  QCheck.Test.make ~count:12 ~name:"fill_m = dense eq(r_x, .) transpose product"
    QCheck.(pair (oneofl [ 1; 2; 3; 4; 5; 6; 10 ]) (int_range 0 10_000))
    (fun (l, seed) -> fill_m_matches_dense ~l seed)

let suite =
  [
    Alcotest.test_case "completeness: factoring" `Quick test_completeness_small;
    Alcotest.test_case "completeness: gadget chains" `Quick test_completeness_chain;
    Alcotest.test_case "completeness: 3 repetitions" `Quick test_completeness_multirep;
    Alcotest.test_case "completeness: 128-row Orion" `Quick test_completeness_default_rows;
    Alcotest.test_case "wrong io rejected" `Quick test_wrong_io_rejected;
    Alcotest.test_case "unsatisfied witness rejected" `Quick test_unsatisfied_rejected_at_prove;
    Alcotest.test_case "tampered proofs rejected" `Quick test_tampered_proof_rejected;
    Alcotest.test_case "different instance rejected" `Quick test_proof_for_different_instance_rejected;
    Alcotest.test_case "proof size" `Quick test_proof_size_positive;
    Alcotest.test_case "prover stats" `Quick test_stats_populated;
    Alcotest.test_case "instance digest pinned" `Quick test_instance_digest_pinned;
    Alcotest.test_case "instance digest = oracle recomputation" `Quick test_instance_digest_oracle;
    QCheck_alcotest.to_alcotest prop_random_circuits_roundtrip;
    Alcotest.test_case "fill_m: log_size 1, 2 and a pool-split window" `Quick test_fill_m_edges;
    QCheck_alcotest.to_alcotest prop_fill_m_dense;
  ]
