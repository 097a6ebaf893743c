(** Top-level public API for the NoCap reproduction.

    One alias per subsystem, grouped the way DESIGN.md inventories them. A
    typical proving session:

    {[
      let b = Nocap_repro.Builder.create () in
      (* ... build a circuit with Nocap_repro.Gadgets ... *)
      let instance, assignment = Nocap_repro.Builder.finalize b in
      let proof, _ = Nocap_repro.Spartan.prove params instance assignment in
      Nocap_repro.Spartan.verify params instance ~io proof
    ]}

    and a typical accelerator study:

    {[
      let wl = Nocap_repro.Workload.spartan_orion ~n_constraints:16e6 () in
      Nocap_repro.Simulator.run Nocap_repro.Hw_config.default wl
    ]} *)

(* Substrates *)
module Pool = Nocap_parallel.Pool
module Native = Nocap_native.Native
module Fv = Nocap_vec.Fv
module Spill = Nocap_vec.Spill
module Arena = Nocap_vec.Arena
module Rng = Zk_util.Rng
module Stats = Zk_util.Stats
module Json_min = Zk_util.Json_min
module Gf = Zk_field.Gf
module Gf2 = Zk_field.Gf2
module Limbs = Zk_field.Limbs
module Fr_bls = Zk_field.Fr_bls
module Fq_bls = Zk_field.Fq_bls
module Keccak = Zk_hash.Keccak
module Transcript = Zk_hash.Transcript
module Ntt = Zk_ntt.Ntt
module Dense_poly = Zk_poly.Dense
module Mle = Zk_poly.Mle
module Reed_solomon = Zk_ecc.Reed_solomon
module Expander_code = Zk_ecc.Expander
module Merkle = Zk_merkle.Merkle

(* Arithmetization and protocol *)
module Sparse = Zk_r1cs.Sparse
module R1cs = Zk_r1cs.R1cs
module Builder = Zk_r1cs.Builder
module Gadgets = Zk_r1cs.Gadgets
module Sumcheck = Zk_sumcheck.Sumcheck
module Sumcheck_ext = Zk_sumcheck.Sumcheck_ext
module Orion = Zk_orion.Orion
module Fri = Zk_orion.Fri
module Stark = Zk_orion.Stark

(* Proving engine: PCS interface, engine context, and the pluggable backends *)
module Pcs = Zk_pcs.Pcs
module Engine = Zk_pcs.Engine
module Orion_pcs = Zk_orion.Orion_pcs
module Fri_pcs = Zk_orion.Fri_pcs
module Spartan = Zk_spartan.Spartan

(** Spartan over the FRI backend — same SNARK, NTT-heavy PCS. *)
module Spartan_fri = Zk_spartan.Spartan.Make (Zk_orion.Fri_pcs)

module Aggregate = Zk_spartan.Aggregate

(* Proving service runtime: job queue, deadlines, retry, degradation *)
module Serve = Nocap_serve.Serve
module Job_error = Nocap_serve.Job_error

(* Verification boundary: error taxonomy and the fault-injection harness *)
module Verify_error = Zk_pcs.Verify_error
module Mutate = Nocap_faults.Mutate
module Fuzz = Nocap_faults.Fuzz
module Fault_targets = Nocap_faults.Targets
module Runtime_faults = Nocap_faults.Runtime_faults

(* Groth16 baseline substrate *)
module G1 = Zk_curve.G1
module Msm = Zk_curve.Msm
module Groth16 = Zk_curve.Groth16

(* Accelerator model *)
module Hw_config = Nocap_model.Config
module Workload = Nocap_model.Workload
module Simulator = Nocap_model.Simulator
module Area = Nocap_model.Area
module Power = Nocap_model.Power
module Isa = Nocap_model.Isa
module Vm = Nocap_model.Vm
module Schedule = Nocap_model.Schedule
module Streams = Nocap_model.Streams
module Multichip = Nocap_model.Multichip
module Kernels = Nocap_model.Kernels
module Spmv_compile = Nocap_model.Spmv_compile

(* Static analysis & verification *)
module Diag = Nocap_analysis.Diag
module Lint = Nocap_analysis.Lint
module Schedule_check = Nocap_analysis.Check
module Program_corpus = Nocap_analysis.Corpus
module Circuit_lint = Nocap_analysis.Circuit_lint
module Circuit_report = Nocap_analysis.Circuit_report
module Circuit_mutate = Nocap_analysis.Circuit_mutate
module Circuit_corpus = Nocap_analysis.Circuit_corpus

(* Baselines and evaluation *)
module Cpu_model = Zk_baseline.Cpu_model
module Pipezk = Zk_baseline.Pipezk
module Gzkp = Zk_baseline.Gzkp
module Proofsize = Zk_baseline.Proofsize
module Endtoend = Zk_perf.Endtoend
module Opcounts = Zk_perf.Opcounts
module Structure = Zk_perf.Structure

(* Workloads and applications *)
module Benchmarks = Zk_workloads.Benchmarks
module Cipher = Zk_workloads.Cipher
module Aes128 = Zk_workloads.Aes128
module Keccak_circuit = Zk_workloads.Keccak_circuit
module Sha256_circuit = Zk_workloads.Sha256_circuit
module Modexp = Zk_workloads.Modexp
module Auction_circuit = Zk_workloads.Auction_circuit
module Litmus_circuit = Zk_workloads.Litmus_circuit
module Synthetic = Zk_workloads.Synthetic
module Mlp_circuit = Zk_workloads.Mlp_circuit
module Zkdb = Zk_zkdb.Zkdb
