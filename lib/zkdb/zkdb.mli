(** A Litmus-style verifiable key-value database (Sec. I, Sec. VIII): the
    server executes YCSB transactions, batches them, and produces a
    Spartan+Orion proof that each batch took the public table state to the
    public next state; clients verify without trusting the server.

    {!prove_batch}/{!verify_batch} run the real pipeline at feasible scale;
    {!max_throughput} evaluates the paper's headline claim — at a 1-second
    transaction-latency target, a software prover manages a few transactions
    per second while NoCap reaches the ~10^3/s that make real-time verified
    databases practical. *)

type t
(** An open database. *)

val create : rows:int -> seed:int64 -> t

val state : t -> int array
(** Current table contents. *)

type receipt = {
  instance : Zk_r1cs.R1cs.instance;
  io : Zk_field.Gf.t array;
  proof : Zk_spartan.Spartan.proof;
  transactions : Zk_workloads.Litmus_circuit.transaction list;
}

val prove_batch :
  ?engine:Zk_pcs.Engine.t ->
  ?params:Zk_spartan.Spartan.params ->
  t ->
  Zk_workloads.Litmus_circuit.transaction list ->
  receipt
(** Execute a batch against the database and produce a proof binding the
    prior public state to the new one. [engine] is passed through to the
    Spartan prover. *)

val verify_batch :
  ?engine:Zk_pcs.Engine.t -> ?params:Zk_spartan.Spartan.params -> receipt -> bool

(* --- the Sec. VIII throughput analysis --- *)

type prover_platform = Cpu | Nocap

val constraints_per_transaction : float
(** 26,840: the Litmus benchmark's 268.4M constraints over 10,000
    transactions (Table III). *)

val batch_latency :
  platform:prover_platform -> include_send:bool -> batch:int -> float
(** Seconds to prove, (optionally) ship, and verify a batch. *)

val max_throughput :
  platform:prover_platform -> include_send:bool -> latency_budget:float -> float
(** Largest sustainable transactions/second with every transaction's
    end-to-end latency within budget. The paper's accounting ("computation,
    proof generation, and verification", Sec. I) corresponds to
    [include_send:false]. *)
