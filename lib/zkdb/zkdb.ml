module Gf = Zk_field.Gf
module R1cs = Zk_r1cs.R1cs
module Spartan = Zk_spartan.Spartan
module Litmus = Zk_workloads.Litmus_circuit
module Proofsize = Zk_baseline.Proofsize
module Cpu_model = Zk_baseline.Cpu_model

type t = {
  mutable table : int array;
  seed : int64;
  mutable batches : int;
}

let create ~rows ~seed =
  let rng = Zk_util.Rng.create seed in
  { table = Array.init rows (fun _ -> Zk_util.Rng.int rng 65536); seed; batches = 0 }

let state db = Array.copy db.table

type receipt = {
  instance : R1cs.instance;
  io : Gf.t array;
  proof : Spartan.proof;
  transactions : Litmus.transaction list;
}

let prove_batch ?engine ?(params = Spartan.test_params) db txs =
  let rows = Array.length db.table in
  (* The circuit generator re-derives the initial state from its seed; we
     instead build the circuit against the database's actual contents by
     replaying the generator path: construct the circuit inline. *)
  let b = Zk_r1cs.Builder.create () in
  let module Builder = Zk_r1cs.Builder in
  let module Gadgets = Zk_r1cs.Gadgets in
  let wires = ref (Array.map (fun v -> Builder.input b (Gf.of_int v)) db.table) in
  let access st ~row ~op =
    let sel =
      Array.init rows (fun j ->
          let bit = Builder.witness b (if j = row then Gf.one else Gf.zero) in
          Gadgets.assert_bool b bit;
          bit)
    in
    Gadgets.assert_equal b
      (Array.to_list sel |> List.map (fun s -> (s, Gf.one)))
      (Builder.lc_const Gf.one);
    match op with
    | Litmus.Read -> st
    | Litmus.Write v ->
      let newval = Builder.witness b (Gf.of_int v) in
      Array.mapi (fun j old -> Gadgets.select b ~cond:sel.(j) newval old) st
  in
  List.iter
    (fun (tx : Litmus.transaction) ->
      wires := access !wires ~row:tx.Litmus.row_a ~op:tx.Litmus.op_a;
      wires := access !wires ~row:tx.Litmus.row_b ~op:tx.Litmus.op_b)
    txs;
  let final = Litmus.apply db.table txs in
  Array.iteri
    (fun j wire ->
      let out = Builder.input b (Gf.of_int final.(j)) in
      Gadgets.assert_equal b (Builder.lc_var wire) (Builder.lc_var out))
    !wires;
  let instance, asn = Builder.finalize b in
  let rng = Zk_util.Rng.create (Int64.add db.seed (Int64.of_int db.batches)) in
  let proof, _stats = Spartan.prove ?engine ~rng params instance asn in
  db.table <- final;
  db.batches <- db.batches + 1;
  { instance; io = R1cs.public_io instance asn; proof; transactions = txs }

let verify_batch ?engine ?(params = Spartan.test_params) receipt =
  Result.is_ok (Spartan.verify ?engine params receipt.instance ~io:receipt.io receipt.proof)

type prover_platform = Cpu | Nocap

let constraints_per_transaction = 268.4e6 /. 10_000.0

let litmus_density = 0.9536

let prover_seconds platform n =
  match platform with
  | Cpu -> Cpu_model.spartan_orion_seconds ~density:litmus_density ~n_constraints:n ()
  | Nocap ->
    let wl =
      Nocap_model.Workload.spartan_orion ~density:litmus_density ~n_constraints:n ()
    in
    (Nocap_model.Simulator.run Nocap_model.Config.default wl)
      .Nocap_model.Simulator.total_seconds

let batch_latency ~platform ~include_send ~batch =
  if batch < 1 then invalid_arg "Zkdb.batch_latency";
  let n = constraints_per_transaction *. float_of_int batch in
  let prove = prover_seconds platform n in
  (* The log^2 proof-size/verifier fits are calibrated on 16M-550M
     constraints; clamp below that range. *)
  let proof_bytes = max 524_288.0 (Proofsize.spartan_orion_proof_bytes ~n_constraints:n) in
  let verify = max 0.02 (Proofsize.spartan_orion_verifier_seconds ~n_constraints:n) in
  let send = if include_send then proof_bytes /. (10.0 *. 1024.0 *. 1024.0) else 0.0 in
  prove +. send +. verify

let max_throughput ~platform ~include_send ~latency_budget =
  (* Latency is monotone in batch size; exponential-then-binary search for
     the largest batch within budget. *)
  let fits b = batch_latency ~platform ~include_send ~batch:b <= latency_budget in
  if not (fits 1) then 0.0
  else begin
    let rec grow hi = if fits hi then grow (2 * hi) else hi in
    let hi = grow 2 in
    let rec bisect lo hi =
      if hi - lo <= 1 then lo
      else
        let mid = (lo + hi) / 2 in
        if fits mid then bisect mid hi else bisect lo mid
    in
    let batch = bisect 1 hi in
    float_of_int batch /. latency_budget
  end
