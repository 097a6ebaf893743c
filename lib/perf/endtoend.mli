(** End-to-end performance analysis: prover time + proof transmission over a
    10 MB/s link + verification time (Table I and Table V).

    All five prover platforms are covered: Spartan+Orion on {NoCap, CPU} and
    Groth16 on {CPU, GPU (GZKP), PipeZK}. *)

type platform =
  | Groth16_cpu
  | Groth16_gpu
  | Groth16_pipezk
  | Spartan_cpu
  | Spartan_nocap

val platform_name : platform -> string

type breakdown = {
  prover : float;
  send : float;
  verifier : float;
}

val total : breakdown -> float

val run :
  platform ->
  n_constraints:float ->
  ?density:float ->
  unit ->
  breakdown
(** End-to-end breakdown for one platform on one statement size. The GPU
    platform is only calibrated at 16M constraints (Table I); other sizes
    scale linearly per Sec. IX-B. *)

val benchmark_breakdown : platform -> Zk_workloads.Benchmarks.t -> breakdown

val speedup : breakdown -> breakdown -> float
(** [speedup baseline ours] = total baseline / total ours. *)

val witness_upload_seconds : n_constraints:float -> float
(** Time to ship the wire values (8 bytes each) from the host CPU to NoCap
    over PCIe 5.0 (64 GB/s, the host link of Sec. IV-D) before proving
    starts. The paper's claim that PCIe 5.0 is "more than enough to keep
    NoCap busy" (Sec. IV-D) is checked in the tests: this is ~1-2% of the
    proving time at every benchmark size. *)
