(** Fault-tolerant proving-service runtime (DESIGN.md Sec. 15).

    Turns the one-shot prover into a long-running multi-tenant service
    over {!Zk_pcs.Engine.t}: a bounded job queue with reject-on-overflow
    admission control, per-job deadlines enforced by a watchdog through
    cooperative {!Nocap_parallel.Pool.Cancel} tokens, retry with
    exponential backoff + deterministic jitter for transient faults
    (classified by {!Job_error}), crash isolation (an exception in one
    job fails only that job — the pool and its sibling jobs are
    untouched), demotion of large jobs to a stream budget (the same
    prover with spill-file blocks) under a memory budget, and graceful
    drain on SIGTERM/SIGINT.

    {b Determinism.} Job execution is a pure function of the request:
    circuit generation derives from (workload, scale), and the prover's
    RNG is the engine-seeded default — so a retried attempt, a demoted
    attempt, and an offline {!Zk_spartan.Spartan.prove} of the same
    request all produce byte-identical proofs.

    {b Threads.} Runners are {e domains}, not systhreads: the kernel
    layer keeps per-domain arena scratch in domain-local storage, which
    OS threads sharing one domain would interleave. All runners submit
    into the shared {!Nocap_parallel.Pool}; its submit lock serializes
    kernel launches while small jobs bypass it entirely on the serial
    path. *)

type kind =
  | Prove  (** generate the circuit, prove, return proof bytes *)
  | Verify of bytes
      (** generate the circuit, decode + verify the supplied proof blob *)

type request = {
  tenant : string;  (** reporting label only; no per-tenant quotas yet *)
  workload : string;  (** a {!workloads} name, case-insensitive *)
  scale : int;  (** generator scale (blocks / bids / constraint count) *)
  kind : kind;
  deadline_s : float option;
      (** relative deadline; [None] uses the config default (or none) *)
}

type outcome =
  | Proof of { bytes : bytes; attempts : int; streamed : bool; elapsed_s : float }
  | Verified of { attempts : int; elapsed_s : float }
  | Failed of { error : Job_error.t; attempts : int }

type config = {
  capacity : int;  (** max admitted-but-unfinished jobs; overflow rejects *)
  runners : int;  (** prover domains *)
  max_retries : int;  (** extra attempts for retryable failures *)
  backoff_base_s : float;  (** first retry delay *)
  backoff_max_s : float;  (** backoff cap *)
  default_deadline_s : float option;  (** applied when a request has none *)
  mem_budget_bytes : int option;
      (** jobs whose no-budget working-set estimate exceeds this are
          demoted to a stream budget (spill-file blocks) instead of
          running hot *)
  params : Zk_spartan.Spartan.params;  (** SNARK parameters for all jobs *)
  seed : int64;  (** jitter seed; never affects proof bytes *)
  tick_s : float;  (** watchdog period (deadline/backoff granularity) *)
}

val default_config : config
(** capacity 64, 2 runners, 2 retries, 10ms..500ms backoff, no default
    deadline, no memory budget, [Spartan.default_params], 2ms tick. *)

type stats = {
  submitted : int;  (** admitted into the queue *)
  completed : int;  (** finished with [Proof] or [Verified] *)
  failed : int;  (** finished with [Failed] *)
  rejected : int;  (** refused at admission: queue full *)
  invalid : int;  (** refused at admission: malformed request *)
  retries : int;  (** attempts re-queued after a transient fault *)
  timeouts : int;  (** jobs that failed with [Deadline_exceeded] *)
  cancelled : int;  (** jobs that failed with [Cancelled] *)
  demoted : int;  (** jobs demoted to a stream budget *)
  crashes : int;  (** worker exceptions captured (including retried ones) *)
  io_failures : int;  (** I/O faults captured (including retried ones) *)
}

type fault_hook = stage:string -> job_id:int -> attempt:int -> unit
(** Fault-injection seam ({!Nocap_faults}' [Runtime_faults] builds these):
    called at stage ["attempt"] on the runner domain just before proving;
    it may raise (simulating a worker crash) or sleep (simulating a slow
    job that blows its deadline). Testing only. *)

type t

val create : ?engine:Zk_pcs.Engine.t -> ?fault_hook:fault_hook -> ?config:config -> unit -> t
(** Start the service: spawns [config.runners] runner domains plus a
    watchdog domain, and installs the {!Nocap_vec.Spill} signal-sweep
    handlers so spill hygiene holds from startup. The engine defaults to
    {!Zk_pcs.Engine.default}. @raise Invalid_argument on a nonsensical
    config. *)

val workloads : unit -> string list
(** Tenant-facing workload names: the Table III benchmarks plus
    ["synthetic"] (scale = constraint count). *)

val generate_workload :
  workload:string ->
  scale:int ->
  (Zk_r1cs.R1cs.instance * Zk_r1cs.R1cs.assignment, Job_error.t) result
(** The deterministic request → circuit mapping used by {!submit}; exposed
    so offline byte-identity checks can rebuild the exact instance. *)

val submit : t -> request -> (int, Job_error.t) result
(** Admit a job, returning its id. [Error] cases: [Queue_full] (capacity
    reached — backpressure, client should retry later), [Invalid_input]
    (malformed request, rejected at admission), [Draining] (shutdown in
    progress). Capacity is reserved before circuit generation, so a burst
    cannot overshoot the bound. *)

val await : t -> int -> outcome
(** Block until the job finishes. @raise Invalid_argument on an id
    {!submit} never returned (or already {!forget}ted). *)

val peek : t -> int -> outcome option
(** Non-blocking {!await}. *)

val cancel : ?reason:string -> t -> int -> bool
(** Cancel a job: queued/backoff jobs fail immediately with [Cancelled];
    a running job's cancel token is tripped and it fails at the next
    kernel chunk boundary. Returns [false] if the job already finished
    (or is unknown). *)

val forget : t -> int -> unit
(** Drop a finished job's record from the table. The circuit (instance +
    assignment) is already released the moment a job finishes; [forget]
    frees the remaining outcome (proof bytes / error) — call it once the
    outcome has been consumed so long-lived services don't accumulate
    finished-job records. *)

val request_drain : t -> unit
(** Async-signal-safe drain trigger: flips an atomic flag the watchdog
    picks up within one tick. *)

val handle_signals : t -> unit -> unit
(** Install SIGTERM/SIGINT handlers layered over the {!Nocap_vec.Spill}
    sweep handlers: the first signal calls {!request_drain} (graceful);
    any further signal assumes the drain is stuck and force-exits —
    chaining to the saved handlers (so the spill sweep still runs), then
    restoring the default disposition and re-raising, so the process is
    never only killable by SIGKILL. Returns a restorer for the previous
    handlers. *)

val drain : ?grace_s:float -> t -> unit
(** Stop admitting ([submit] returns [Draining]) and wait for every
    admitted job to finish. With [grace_s], jobs still unfinished after
    the grace period are shed: queued/backoff jobs fail with [Draining],
    running jobs are cancelled at the next chunk boundary. *)

val shutdown : ?grace_s:float -> t -> stats
(** {!drain}, then stop and join all service domains and run a major GC
    (so any backstop spill finalizers fire before the caller checks
    {!Nocap_vec.Spill.live_files}). Returns the final counters. The
    handle must not be used afterwards. *)

val draining : t -> bool

val stats : t -> stats
(** Snapshot of the running counters. *)
