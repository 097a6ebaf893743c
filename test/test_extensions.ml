(* Tests for the extension features built on top of the paper's core:
   GF(p^2), extension-field sumcheck, proof serialization, batched proving,
   instruction streams, and the four-step NTT kernel at the ISA level. *)

module Gf = Zk_field.Gf
module Gf2 = Zk_field.Gf2
module Sumcheck_ext = Zk_sumcheck.Sumcheck_ext
module Spartan = Zk_spartan.Spartan
module Aggregate = Zk_spartan.Aggregate
module R1cs = Zk_r1cs.R1cs
module Synthetic = Zk_workloads.Synthetic
module Transcript = Zk_hash.Transcript
module Rng = Zk_util.Rng
module Pool = Nocap_parallel.Pool
module Isa = Nocap_model.Isa
module Vm = Nocap_model.Vm
module Streams = Nocap_model.Streams
module Schedule = Nocap_model.Schedule
module Kernels = Nocap_model.Kernels
module Config = Nocap_model.Config

let gf = Alcotest.testable Gf.pp Gf.equal
let gf2 = Alcotest.testable Gf2.pp Gf2.equal

(* --- GF(p^2) --- *)

let test_gf2_nonresidue () =
  (* 7 must be a quadratic non-residue: 7^((p-1)/2) = -1. *)
  let e = Int64.shift_right_logical (Int64.sub Gf.p 1L) 1 in
  Alcotest.check gf "7 is a non-residue" (Gf.neg Gf.one) (Gf.pow (Gf.of_int 7) e);
  Alcotest.check gf2 "phi^2 = 7" (Gf2.of_base (Gf.of_int 7)) (Gf2.square Gf2.phi)

let test_gf2_axioms () =
  let rng = Rng.create 90L in
  for _ = 1 to 50 do
    let x = Gf2.random rng and y = Gf2.random rng and z = Gf2.random rng in
    Alcotest.(check bool) "mul comm" true (Gf2.equal (Gf2.mul x y) (Gf2.mul y x));
    Alcotest.(check bool) "mul assoc" true
      (Gf2.equal (Gf2.mul (Gf2.mul x y) z) (Gf2.mul x (Gf2.mul y z)));
    Alcotest.(check bool) "distributive" true
      (Gf2.equal (Gf2.mul x (Gf2.add y z)) (Gf2.add (Gf2.mul x y) (Gf2.mul x z)))
  done

(* --- extension-field sumcheck --- *)

(* The extension verifier's evaluator against naive Lagrange, at every
   degree 1..8: at a random GF(p^2) point and at each base-field node. *)
let prop_ext_eval_round_poly =
  QCheck.Test.make ~count:30
    ~name:"ext eval_round_poly = naive Lagrange (degrees 1..8, nodes)" QCheck.small_nat
    (fun seed ->
      let rng = Rng.create (Int64.of_int (seed + 600)) in
      List.for_all
        (fun d ->
          let g = Array.init (d + 1) (fun _ -> Gf2.random rng) in
          let points = Gf2.random rng :: List.init (d + 1) (fun i -> Gf2.of_base (Gf.of_int i)) in
          List.for_all
            (fun r ->
              Gf2.equal (Sumcheck_ext.eval_round_poly g r) (Lagrange_oracle.eval_ext g r))
            points)
        (List.init 8 succ))

let test_sumcheck_ext_roundtrip () =
  let rng = Rng.create 92L in
  let l = 6 in
  let tables = Array.init 3 (fun _ -> Array.init (1 lsl l) (fun _ -> Gf.random rng)) in
  let comb v = Gf2.mul v.(0) (Gf2.mul v.(1) v.(2)) in
  let claim =
    let acc = ref Gf.zero in
    for b = 0 to (1 lsl l) - 1 do
      acc := Gf.add !acc (Gf.mul tables.(0).(b) (Gf.mul tables.(1).(b) tables.(2).(b)))
    done;
    !acc
  in
  let pt = Transcript.create "ext-test" in
  let res = Sumcheck_ext.prove pt ~degree:3 ~tables ~comb ~comb_mults:2 ~claim in
  let vt = Transcript.create "ext-test" in
  match Sumcheck_ext.verify vt ~degree:3 ~num_vars:l ~claim res.Sumcheck_ext.proof with
  | Error e -> Alcotest.failf "ext verify failed: %s" e
  | Ok v ->
    Alcotest.(check bool) "final claim matches comb of finals" true
      (Gf2.equal (comb res.Sumcheck_ext.final_values) v.Sumcheck_ext.value);
    (* Final values are the base tables' MLEs at the extension point. *)
    Array.iteri
      (fun j t ->
        Alcotest.(check bool)
          (Printf.sprintf "table %d" j)
          true
          (Gf2.equal (Sumcheck_ext.eval_mle_ext t v.Sumcheck_ext.point)
             res.Sumcheck_ext.final_values.(j)))
      tables

let test_sumcheck_ext_rejects () =
  let rng = Rng.create 93L in
  let l = 4 in
  let tables = [| Array.init (1 lsl l) (fun _ -> Gf.random rng) |] in
  let comb v = v.(0) in
  let claim = Gf.add (Array.fold_left Gf.add Gf.zero tables.(0)) Gf.one in
  let pt = Transcript.create "ext-test" in
  let res = Sumcheck_ext.prove pt ~degree:1 ~tables ~comb ~comb_mults:0 ~claim in
  let vt = Transcript.create "ext-test" in
  match Sumcheck_ext.verify vt ~degree:1 ~num_vars:l ~claim res.Sumcheck_ext.proof with
  | Error _ -> ()
  | Ok v ->
    Alcotest.(check bool) "oracle check fails" false
      (Gf2.equal (Sumcheck_ext.eval_mle_ext tables.(0) v.Sumcheck_ext.point)
         v.Sumcheck_ext.value)

(* A degree below 1 is a bad shape, not an out-of-bounds read of g(1). *)
let test_sumcheck_ext_rejects_degree_zero () =
  let proof = { Sumcheck_ext.round_polys = [| [| Gf2.zero |] |] } in
  let vt = Transcript.create "ext-test" in
  match Sumcheck_ext.verify vt ~degree:0 ~num_vars:1 ~claim:Gf.zero proof with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "degree 0 accepted"

let test_ext_vs_repetition_cost () =
  (* One extension run should cost well under 3 repetition runs. *)
  let rng = Rng.create 94L in
  let l = 8 in
  let tables = Array.init 4 (fun _ -> Array.init (1 lsl l) (fun _ -> Gf.random rng)) in
  let comb2 v = Gf2.mul v.(0) (Gf2.sub (Gf2.mul v.(1) v.(2)) v.(3)) in
  let claim =
    let acc = ref Gf.zero in
    for b = 0 to (1 lsl l) - 1 do
      acc :=
        Gf.add !acc
          (Sumcheck_oracle.spartan_comb_scalar (Array.map (fun t -> t.(b)) tables))
    done;
    !acc
  in
  let pt = Transcript.create "ext-cost" in
  let ext = Sumcheck_ext.prove pt ~degree:3 ~tables ~comb:comb2 ~comb_mults:2 ~claim in
  let base_run () =
    let t = Transcript.create "base-cost" in
    (Zk_sumcheck.Sumcheck.prove t ~tables:(Sumcheck_oracle.spills tables)
       ~comb:Zk_sumcheck.Sumcheck.Eq_abc)
      .Zk_sumcheck.Sumcheck.stats
      .Zk_sumcheck.Sumcheck.mults
  in
  let three_reps = 3 * base_run () in
  Alcotest.(check bool)
    (Printf.sprintf "ext (%d) cheaper than 3 repetitions (%d)"
       ext.Sumcheck_ext.base_mults_equivalent three_reps)
    true
    (ext.Sumcheck_ext.base_mults_equivalent < three_reps)

(* --- proof serialization --- *)

let proof_fixture =
  lazy
    (let inst, asn = Synthetic.circuit ~n_constraints:200 ~seed:95L () in
     let proof, _ = Spartan.prove Spartan.test_params inst asn in
     (inst, asn, proof))

let test_serialize_roundtrip () =
  let inst, asn, proof = Lazy.force proof_fixture in
  let bytes = Spartan.proof_to_bytes proof in
  Alcotest.(check int) "size accessor" (Bytes.length bytes) (Spartan.serialized_size proof);
  match Spartan.proof_of_bytes bytes with
  | Error e -> Alcotest.failf "decode failed: %s" (Zk_pcs.Verify_error.to_string e)
  | Ok proof' ->
    (match Spartan.verify Spartan.test_params inst ~io:(R1cs.public_io inst asn) proof' with
    | Ok () -> ()
    | Error e -> Alcotest.failf "decoded proof does not verify: %s" (Zk_pcs.Verify_error.to_string e))

let test_serialize_rejects_garbage () =
  let _, _, proof = Lazy.force proof_fixture in
  let bytes = Spartan.proof_to_bytes proof in
  (* Truncation. *)
  (match Spartan.proof_of_bytes (Bytes.sub bytes 0 (Bytes.length bytes / 2)) with
  | Ok _ -> Alcotest.fail "accepted truncated proof"
  | Error _ -> ());
  (* Trailing bytes. *)
  (match Spartan.proof_of_bytes (Bytes.cat bytes (Bytes.make 1 'x')) with
  | Ok _ -> Alcotest.fail "accepted trailing bytes"
  | Error _ -> ());
  (* Bad magic. *)
  let bad = Bytes.copy bytes in
  Bytes.set bad 0 'X';
  (match Spartan.proof_of_bytes bad with
  | Ok _ -> Alcotest.fail "accepted bad magic"
  | Error _ -> ());
  (* A non-canonical field element (0xFFFF...FF) after the header. *)
  let bad2 = Bytes.copy bytes in
  let off = 8 + 1 + 32 + 24 + 8 + 8 in
  (* magic, backend tag, root, dims, reps count, first length *)
  Bytes.fill bad2 off 8 '\xff';
  match Spartan.proof_of_bytes bad2 with
  | Ok _ -> Alcotest.fail "accepted non-canonical element"
  | Error _ -> ()

let prop_serialize_random_corruption =
  QCheck.Test.make ~count:30 ~name:"corrupted proofs never verify"
    QCheck.(pair small_nat small_nat)
    (fun (pos_seed, byte) ->
      let inst, asn, proof = Lazy.force proof_fixture in
      let bytes = Spartan.proof_to_bytes proof in
      let pos = 8 + (pos_seed * 37 mod (Bytes.length bytes - 8)) in
      let orig = Bytes.get bytes pos in
      let nb = Char.chr (byte land 0xff) in
      if nb = orig then true
      else begin
        let corrupted = Bytes.copy bytes in
        Bytes.set corrupted pos nb;
        match Spartan.proof_of_bytes corrupted with
        | Error _ -> true
        | Ok p -> (
          match Spartan.verify Spartan.test_params inst ~io:(R1cs.public_io inst asn) p with
          | Ok () -> false (* a single flipped byte must never still verify *)
          | Error _ -> true)
      end)

(* --- batched proving --- *)

let batch_fixture k =
  (* Same circuit, different witnesses: vary only the witness values by using
     the same builder program with different seeds would change io; instead
     clone one instance and randomize assignments that still satisfy it:
     we re-generate with the same seed (same circuit) but perturb via scale.
     Simplest sound approach: same seed gives identical structure AND
     identical values, so build k instances from k seeds and assert equal
     structure via the instance digest. *)
  let mk seed = Synthetic.circuit ~n_constraints:150 ~seed () in
  let inst0, _ = mk 1L in
  let assignments =
    Array.init k (fun i ->
        let inst, asn = mk (Int64.of_int (i + 1)) in
        (* Synthetic circuits share structure only for seed-independent
           shapes; enforce by construction below. *)
        ignore inst;
        asn)
  in
  (inst0, assignments)

let test_batch_roundtrip () =
  (* For identical structure across the batch we use the same generator seed
     for the circuit skeleton; Synthetic's constraint pattern depends on the
     seed, so instead build the batch from one instance and reuse its own
     satisfying assignment k times with fresh zk masks: still a valid batch
     (distinct commitments, shared circuit). *)
  let inst, asn = Synthetic.circuit ~n_constraints:150 ~seed:96L () in
  let assignments = Array.init 4 (fun _ -> asn) in
  let proof = Aggregate.prove Spartan.test_params inst assignments in
  let ios = Array.map (R1cs.public_io inst) assignments in
  (match Aggregate.verify Spartan.test_params inst ~ios proof with
  | Ok () -> ()
  | Error e -> Alcotest.failf "batch verify failed: %s" (Zk_pcs.Verify_error.to_string e));
  ignore (batch_fixture 2)

let test_batch_distinct_witnesses () =
  (* A real multi-witness batch: the factoring circuit parameterized only by
     public io keeps structure fixed; here, distinct (x, y) pairs with the
     same product circuit shape. *)
  let build x y =
    let b = Zk_r1cs.Builder.create () in
    let vx = Zk_r1cs.Builder.witness b (Gf.of_int x) in
    let vy = Zk_r1cs.Builder.witness b (Gf.of_int y) in
    let out = Zk_r1cs.Builder.input b (Gf.of_int (x * y)) in
    Zk_r1cs.Builder.constrain b
      (Zk_r1cs.Builder.lc_var vx)
      (Zk_r1cs.Builder.lc_var vy)
      (Zk_r1cs.Builder.lc_var out);
    Zk_r1cs.Builder.finalize b
  in
  let inst, asn1 = build 3 5 in
  let _, asn2 = build 4 4 in
  let _, asn3 = build 2 8 in
  (* All three satisfy the same structural instance (product circuit): the
     instances are identical because the constraint pattern is identical. *)
  Array.iter
    (fun asn -> Alcotest.(check bool) "satisfies shared instance" true (R1cs.satisfied inst asn))
    [| asn1; asn2; asn3 |];
  let assignments = [| asn1; asn2; asn3 |] in
  let proof = Aggregate.prove Spartan.test_params inst assignments in
  let ios = Array.map (R1cs.public_io inst) assignments in
  (match Aggregate.verify Spartan.test_params inst ~ios proof with
  | Ok () -> ()
  | Error e -> Alcotest.failf "multi-witness batch failed: %s" (Zk_pcs.Verify_error.to_string e));
  (* Forging one instance's public output breaks the whole batch. *)
  ios.(1).(1) <- Gf.of_int 17;
  match Aggregate.verify Spartan.test_params inst ~ios proof with
  | Ok () -> Alcotest.fail "accepted batch with forged io"
  | Error _ -> ()

let test_batch_unsatisfied_rejected () =
  let inst, asn = Synthetic.circuit ~n_constraints:100 ~seed:97L () in
  let bad = Nocap_vec.Fv.copy asn in
  Nocap_vec.Fv.set bad 0 (Gf.add (Nocap_vec.Fv.get bad 0) Gf.one);
  Alcotest.(check bool) "prove raises" true
    (try
       ignore (Aggregate.prove Spartan.test_params inst [| asn; bad |]);
       false
     with Invalid_argument _ -> true)

let test_batch_amortization () =
  (* The batch proof must be much smaller than k separate proofs: sumchecks
     and challenge schedules are shared. *)
  let inst, asn = Synthetic.circuit ~n_constraints:400 ~seed:98L () in
  let k = 6 in
  let batch = Aggregate.prove Spartan.test_params inst (Array.make k asn) in
  let single, _ = Spartan.prove Spartan.test_params inst asn in
  let batch_bytes = Aggregate.proof_size_bytes Spartan.test_params batch in
  let separate_bytes = k * Spartan.proof_size_bytes Spartan.test_params single in
  (* Proof bytes are dominated by the per-instance Orion openings, but the
     shared challenge schedule must still save the (k-1) duplicated sumcheck
     transcripts... *)
  Alcotest.(check bool)
    (Printf.sprintf "batch %d < separate %d" batch_bytes separate_bytes)
    true (batch_bytes < separate_bytes);
  (* ...and structurally there is exactly one pair of sumchecks per
     repetition regardless of k (the amortization that matters for prover
     time: one shared M-table instead of k transpose-SpMVs). *)
  let rep = batch.Aggregate.reps.(0) in
  Alcotest.(check int) "one sc1" inst.R1cs.log_size
    (Array.length rep.Aggregate.sc1.Zk_sumcheck.Sumcheck.round_polys);
  Alcotest.(check int) "k openings" k (Array.length rep.Aggregate.w_opens)

(* Golden batch-proof bytes: the sumcheck round polynomials, the per-instance
   claims, vws and every opening (in its Orion wire form), hashed with
   SHA3-256. Pins the batched prover's transcript traffic, RNG draws and
   arithmetic across refactors of its dataflow. *)
let aggregate_fingerprint (p : Aggregate.proof) =
  let module Codec = Zk_pcs.Codec in
  let module Orion_pcs = Zk_orion.Orion_pcs in
  let buf = Buffer.create 4096 in
  let put_sumcheck (sc : Zk_sumcheck.Sumcheck.proof) =
    Array.iter (Codec.put_gf_array buf) sc.Zk_sumcheck.Sumcheck.round_polys
  in
  Array.iter (Orion_pcs.write_commitment buf) p.Aggregate.commitments;
  Array.iter
    (fun (rep : Aggregate.rep_proof) ->
      put_sumcheck rep.Aggregate.sc1;
      Array.iter (fun (va, vb, vc) -> Codec.put_gf_array buf [| va; vb; vc |])
        rep.Aggregate.claims_abc;
      put_sumcheck rep.Aggregate.sc2;
      Codec.put_gf_array buf rep.Aggregate.vws;
      Array.iter (Orion_pcs.write_eval_proof buf) rep.Aggregate.w_opens)
    p.Aggregate.reps;
  Zk_hash.Keccak.(to_hex (sha3_256 (Buffer.to_bytes buf)))

let test_batch_golden () =
  let synthetic =
    let inst, asn = Synthetic.circuit ~n_constraints:300 ~seed:99L () in
    (inst, Array.make 3 asn)
  in
  let product =
    let build x y =
      let b = Zk_r1cs.Builder.create () in
      let vx = Zk_r1cs.Builder.witness b (Gf.of_int x) in
      let vy = Zk_r1cs.Builder.witness b (Gf.of_int y) in
      let out = Zk_r1cs.Builder.input b (Gf.of_int (x * y)) in
      Zk_r1cs.Builder.constrain b
        (Zk_r1cs.Builder.lc_var vx)
        (Zk_r1cs.Builder.lc_var vy)
        (Zk_r1cs.Builder.lc_var out);
      Zk_r1cs.Builder.finalize b
    in
    let inst, asn1 = build 3 5 in
    (inst, [| asn1; snd (build 4 4); snd (build 2 8) |])
  in
  (* The batched first sumcheck runs the native round kernel once per
     instance, so the bytes are pinned at every domain count and tier. *)
  List.iter
    (fun (name, (inst, assignments), params, expected) ->
      let check label run =
        Alcotest.(check string) (name ^ " " ^ label) expected
          (run (fun () -> aggregate_fingerprint (Aggregate.prove params inst assignments)))
      in
      List.iter
        (fun d -> check (Printf.sprintf "at %d domains" d) (Pool.with_domains d))
        [ 1; 2; 3 ];
      check "with scalar C kernels" Nocap_native.Native.with_scalar_c;
      check "with the AVX2 tier only" Nocap_native.Native.with_avx2_only)
    [
      ( "synthetic-300 x3, 2 reps",
        synthetic,
        { Spartan.test_params with Spartan.repetitions = 2 },
        "573d135c67567e59884e8df029d32b74752ebdce5d3782c65d1d7860bbb3875d" );
      ( "product x3",
        product,
        Spartan.test_params,
        "b5d29a693a646174f9e4b27ab798c0de9e8361bdc7619c2c19abdce1904d60ef" );
    ]

(* --- instruction streams --- *)

let test_streams_preserve_schedule () =
  let k = 2048 in
  let program = (Kernels.sumcheck_round ~vector_len:k).Kernels.program in
  let sched = Schedule.run Config.default ~vector_len:k program in
  let streams = Streams.split Config.default ~vector_len:k program in
  Alcotest.(check int) "makespan preserved" sched.Schedule.makespan streams.Streams.makespan;
  (* Replay recovers exactly the scheduled issue cycles of every effectful
     instruction. *)
  let scheduled =
    List.filter_map
      (fun (s : Schedule.slot) ->
        match s.Schedule.instr with
        | Isa.Delay _ -> None
        | i -> Some (i, s.Schedule.issue))
      sched.Schedule.slots
    |> List.sort compare
  in
  let replayed = Streams.replay streams |> List.sort compare in
  Alcotest.(check int) "same instruction count" (List.length scheduled) (List.length replayed);
  List.iter2
    (fun (i1, c1) (i2, c2) ->
      Alcotest.(check bool) "same instruction" true (i1 = i2);
      Alcotest.(check int) "same issue cycle" c1 c2)
    scheduled replayed

let test_streams_code_size () =
  let k = 2048 in
  let program = (Kernels.sumcheck_round ~vector_len:k).Kernels.program in
  let streams = Streams.split Config.default ~vector_len:k program in
  Alcotest.(check bool) "streams smaller than VLIW words" true
    (Streams.instruction_count streams < Streams.vliw_word_count streams);
  (* Every stream holds instructions of its own FU only (or delays). *)
  List.iter
    (fun (s : Streams.stream) ->
      List.iter
        (fun instr ->
          match instr with
          | Isa.Delay _ -> ()
          | i ->
            Alcotest.(check bool) "instruction on its FU" true (Isa.which_fu i = s.Streams.fu))
        s.Streams.ops)
    streams.Streams.streams

(* --- four-step NTT kernel --- *)

let test_four_step_kernel () =
  List.iter
    (fun (rows, cols) ->
      let k = rows * cols in
      let kern, twiddles = Kernels.four_step_ntt ~rows ~cols in
      let vm = Vm.create ~vector_len:k ~num_regs:8 ~mem_slots:4 in
      let rng = Rng.create 99L in
      let input = Array.init k (fun _ -> Gf.random rng) in
      Vm.write_mem vm 0 input;
      Vm.write_mem vm 1 twiddles;
      Vm.exec vm kern.Kernels.program;
      let out = Vm.read_mem vm kern.Kernels.output_slot in
      let expected =
        Zk_ntt.Ntt.Gf_ntt.forward_copy (Zk_ntt.Ntt.Gf_ntt.plan k) input
      in
      Array.iteri
        (fun i e ->
          Alcotest.check gf (Printf.sprintf "%dx%d [%d]" rows cols i) e out.(i))
        expected)
    [ (4, 4); (8, 16); (16, 8); (32, 32) ]

let suite =
  [
    Alcotest.test_case "GF(p^2) non-residue" `Quick test_gf2_nonresidue;
    Alcotest.test_case "GF(p^2) axioms" `Quick test_gf2_axioms;
    Alcotest.test_case "ext sumcheck roundtrip" `Quick test_sumcheck_ext_roundtrip;
    Alcotest.test_case "ext sumcheck rejects" `Quick test_sumcheck_ext_rejects;
    Alcotest.test_case "ext sumcheck rejects degree < 1" `Quick
      test_sumcheck_ext_rejects_degree_zero;
    Alcotest.test_case "ext vs repetition cost" `Quick test_ext_vs_repetition_cost;
    Alcotest.test_case "serialize roundtrip" `Quick test_serialize_roundtrip;
    Alcotest.test_case "serialize rejects garbage" `Quick test_serialize_rejects_garbage;
    Alcotest.test_case "batch roundtrip" `Quick test_batch_roundtrip;
    Alcotest.test_case "batch distinct witnesses" `Quick test_batch_distinct_witnesses;
    Alcotest.test_case "batch unsatisfied rejected" `Quick test_batch_unsatisfied_rejected;
    Alcotest.test_case "batch amortization" `Quick test_batch_amortization;
    Alcotest.test_case "batch proof golden" `Quick test_batch_golden;
    Alcotest.test_case "streams preserve schedule" `Quick test_streams_preserve_schedule;
    Alcotest.test_case "streams code size" `Quick test_streams_code_size;
    Alcotest.test_case "four-step NTT kernel" `Quick test_four_step_kernel;
    QCheck_alcotest.to_alcotest prop_serialize_random_corruption;
    QCheck_alcotest.to_alcotest prop_ext_eval_round_poly;
  ]
