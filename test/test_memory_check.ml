(* Offline memory checking: consistency proofs for access traces, the
   multiset equation's rejection of lying reads, and the constraint-count
   advantage over the multiplexer approach. *)

module Gf = Zk_field.Gf
module Mc = Memory_check
module R1cs = Zk_r1cs.R1cs
module Builder = Zk_r1cs.Builder
module Spartan = Zk_spartan.Spartan
module Transcript = Zk_hash.Transcript
module Rng = Zk_util.Rng

let challenges () =
  let t = Transcript.create "memcheck-test" in
  Array.init 4 (fun _ ->
      (Transcript.challenge_gf t "gamma", Transcript.challenge_gf t "delta"))

let random_trace rng ~m ~count =
  List.init count (fun _ ->
      if Rng.bool rng then Mc.Load (Rng.int rng m)
      else Mc.Store (Rng.int rng m, Rng.int rng 1000))

let test_reference () =
  let reads, final = Mc.reference ~init:[| 5; 6 |] [ Mc.Load 1; Mc.Store (1, 9); Mc.Load 1; Mc.Load 0 ] in
  Alcotest.(check (list int)) "reads" [ 6; 9; 5 ] reads;
  Alcotest.(check (array int)) "final" [| 5; 9 |] final

let test_honest_trace_satisfies () =
  let rng = Rng.create 310L in
  List.iter
    (fun (m, count) ->
      let init = Array.init m (fun _ -> Rng.int rng 1000) in
      let ops = random_trace rng ~m ~count in
      let inst, asn = Mc.circuit ~challenges:(challenges ()) ~init ops () in
      Alcotest.(check bool)
        (Printf.sprintf "m=%d t=%d satisfied" m count)
        true (R1cs.satisfied inst asn))
    [ (2, 5); (8, 20); (16, 40) ]

let test_memory_semantics_via_outputs () =
  (* The circuit's revealed load results equal the reference semantics. *)
  let init = [| 10; 20; 30; 40 |] in
  let ops =
    [ Mc.Load 2; Mc.Store (2, 99); Mc.Load 2; Mc.Store (0, 7); Mc.Load 0; Mc.Load 3 ]
  in
  let expected_reads, _ = Mc.reference ~init ops in
  let inst, asn = Mc.circuit ~challenges:(challenges ()) ~init ops () in
  Alcotest.(check bool) "satisfied" true (R1cs.satisfied inst asn);
  (* Revealed outputs sit at the end of the io prefix. *)
  let io = R1cs.public_io inst asn in
  let n_io = Array.length io in
  let reads = List.length expected_reads in
  let revealed = Array.sub io (n_io - reads) reads in
  List.iteri
    (fun i expect ->
      Alcotest.(check bool)
        (Printf.sprintf "read %d" i)
        true
        (Gf.equal revealed.(i) (Gf.of_int expect)))
    expected_reads

let test_trace_proves_end_to_end () =
  let rng = Rng.create 311L in
  let init = Array.init 8 (fun _ -> Rng.int rng 100) in
  let ops = random_trace rng ~m:8 ~count:12 in
  let inst, asn = Mc.circuit ~challenges:(challenges ()) ~init ops () in
  let proof, _ = Spartan.prove Spartan.test_params inst asn in
  match Spartan.verify Spartan.test_params inst ~io:(R1cs.public_io inst asn) proof with
  | Ok () -> ()
  | Error e -> Alcotest.failf "memory-check proof failed: %s" (Zk_pcs.Verify_error.to_string e)

let test_lying_read_caught () =
  (* A prover that returns a stale value for a read cannot build the
     circuit: the multiset equation fails at construction. We simulate the
     lie by replaying a trace against a corrupted initial claim: claim the
     final state shows the store, but read stale data — concretely, build
     with an init array that disagrees with the witness simulation by
     tampering post-hoc with the assignment instead. *)
  let init = [| 1; 2 |] in
  let ops = [ Mc.Store (0, 50); Mc.Load 0 ] in
  let inst, asn = Mc.circuit ~challenges:(challenges ()) ~init ops () in
  Alcotest.(check bool) "honest ok" true (R1cs.satisfied inst asn);
  (* Flip witness wires one at a time; no single perturbation of the read
     value region may keep the instance satisfied. *)
  let broke = ref true in
  let module Fv = Nocap_vec.Fv in
  for i = 0 to min 40 ((R1cs.size inst / 2) - 1) do
    let saved = Fv.get asn i in
    if not (Gf.equal saved Gf.zero) then begin
      Fv.set asn i (Gf.add saved Gf.one);
      if R1cs.satisfied inst asn then broke := false;
      Fv.set asn i saved
    end
  done;
  Alcotest.(check bool) "no single-wire lie survives" true !broke

let test_constraint_advantage () =
  (* O(1) vs O(m) per access: at 64 cells the offline checker must be far
     cheaper, and its per-access constraint count must not grow with m. *)
  let c64 = Mc.constraints_per_access ~memory:64 in
  let c1024 = Mc.constraints_per_access ~memory:1024 in
  Alcotest.(check bool) "near-constant in memory size" true (c1024 - c64 <= 8);
  Alcotest.(check bool) "beats multiplexers at 64 cells" true
    (c64 < Mc.multiplexer_constraints_per_access ~memory:64);
  (* And measured, not just modeled. The fair comparison is the marginal
     cost per access (the Init/Final bookkeeping is a one-time O(m) cost the
     trace amortizes): grow the trace and compare the constraint deltas. *)
  let rng = Rng.create 312L in
  let m = 32 in
  let init = Array.init m (fun _ -> Rng.int rng 100) in
  let ops20 = random_trace rng ~m ~count:20 in
  let ops40 = ops20 @ random_trace rng ~m ~count:20 in
  let count inst = inst.R1cs.num_constraints in
  let mc20, _ = Mc.circuit ~challenges:(challenges ()) ~init ops20 () in
  let mc40, _ = Mc.circuit ~challenges:(challenges ()) ~init ops40 () in
  let mc_marginal = float_of_int (count mc40 - count mc20) /. 20.0 in
  let mk_txs ops =
    List.map
      (fun op ->
        match op with
        | Mc.Load a -> { Zk_workloads.Litmus_circuit.row_a = a; op_a = Zk_workloads.Litmus_circuit.Read; row_b = a; op_b = Zk_workloads.Litmus_circuit.Read }
        | Mc.Store (a, v) -> { Zk_workloads.Litmus_circuit.row_a = a; op_a = Zk_workloads.Litmus_circuit.Write v; row_b = a; op_b = Zk_workloads.Litmus_circuit.Read })
      ops
  in
  let mux20, _ = Zk_workloads.Litmus_circuit.circuit ~rows:m ~transactions:(mk_txs ops20) ~seed:313L () in
  let mux40, _ = Zk_workloads.Litmus_circuit.circuit ~rows:m ~transactions:(mk_txs ops40) ~seed:313L () in
  let mux_marginal = float_of_int (count mux40 - count mux20) /. 40.0 in
  Alcotest.(check bool)
    (Printf.sprintf "measured marginal advantage (%.0f vs %.0f)" mc_marginal mux_marginal)
    true
    (mc_marginal < mux_marginal)

let test_bad_arguments () =
  Alcotest.(check bool) "empty memory" true
    (try
       ignore (Mc.circuit ~challenges:(challenges ()) ~init:[||] [] ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "address out of range" true
    (try
       ignore (Mc.circuit ~challenges:(challenges ()) ~init:[| 1 |] [ Mc.Load 5 ] ());
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "reference semantics" `Quick test_reference;
    Alcotest.test_case "honest traces satisfy" `Quick test_honest_trace_satisfies;
    Alcotest.test_case "load results revealed" `Quick test_memory_semantics_via_outputs;
    Alcotest.test_case "proves end to end" `Quick test_trace_proves_end_to_end;
    Alcotest.test_case "lying reads caught" `Quick test_lying_read_caught;
    Alcotest.test_case "constraint advantage" `Quick test_constraint_advantage;
    Alcotest.test_case "bad arguments" `Quick test_bad_arguments;
  ]
