module Cpu_model = Zk_baseline.Cpu_model
module Pipezk = Zk_baseline.Pipezk
module Gzkp = Zk_baseline.Gzkp
module Proofsize = Zk_baseline.Proofsize
module Config = Nocap_model.Config
module Workload = Nocap_model.Workload
module Simulator = Nocap_model.Simulator

type platform =
  | Groth16_cpu
  | Groth16_gpu
  | Groth16_pipezk
  | Spartan_cpu
  | Spartan_nocap

let platform_name = function
  | Groth16_cpu -> "Groth16 / CPU"
  | Groth16_gpu -> "Groth16 / GPU"
  | Groth16_pipezk -> "Groth16 / PipeZK"
  | Spartan_cpu -> "Spartan+Orion / CPU"
  | Spartan_nocap -> "Spartan+Orion / NoCap"

type breakdown = { prover : float; send : float; verifier : float }

let total b = b.prover +. b.send +. b.verifier

let link_mb_per_s = 10.0

let send_seconds bytes = bytes /. (link_mb_per_s *. 1024.0 *. 1024.0)

let nocap_prover_seconds ~n_constraints ~density =
  let wl = Workload.spartan_orion ~density ~n_constraints () in
  (Simulator.run Config.default wl).Simulator.total_seconds

let run platform ~n_constraints ?(density = 1.0) () =
  let groth16 prover =
    {
      prover;
      send = send_seconds Proofsize.groth16_proof_bytes;
      verifier = Proofsize.groth16_verifier_seconds;
    }
  in
  let spartan prover =
    {
      prover;
      send = send_seconds (Proofsize.spartan_orion_proof_bytes ~n_constraints);
      verifier = Proofsize.spartan_orion_verifier_seconds ~n_constraints;
    }
  in
  match platform with
  | Groth16_cpu -> groth16 (Cpu_model.groth16_seconds ~n_constraints)
  | Groth16_gpu -> groth16 (Gzkp.table1_seconds *. n_constraints /. 16.0e6)
  | Groth16_pipezk -> groth16 (Pipezk.seconds ~n_constraints)
  | Spartan_cpu -> spartan (Cpu_model.spartan_orion_seconds ~density ~n_constraints ())
  | Spartan_nocap -> spartan (nocap_prover_seconds ~n_constraints ~density)

let benchmark_breakdown platform (b : Zk_workloads.Benchmarks.t) =
  run platform ~n_constraints:b.Zk_workloads.Benchmarks.r1cs_size
    ~density:b.Zk_workloads.Benchmarks.density ()

let speedup baseline ours = total baseline /. total ours

let pcie_gbps = 64.0

let witness_upload_seconds ~n_constraints = 8.0 *. n_constraints /. (pcie_gbps *. 1e9)
