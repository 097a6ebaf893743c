(** Runtime fault injection for the proving service.

    Complements the {!Mutate}/{!Fuzz} proof-byte harness (which attacks
    the verifier) by attacking the {e service runtime}: injected worker
    crashes, spill I/O failures ([EIO]/[ENOSPC]), artificially slow jobs
    that blow their deadlines, and malformed tenant requests. Fault
    selection is a pure function of the plan and the job id, so runs are
    reproducible and the bench can assert which counters must be
    nonzero. *)

exception Injected_crash of int
(** Raised by the hook inside a designated job's attempt; payload is the
    job id. Classified by the service as a retryable [Worker_crash]. *)

type plan = {
  crash_every : int;  (** crash every k-th job id (0 = never) *)
  io_fail_every : int;  (** fail a spill transfer on every k-th job id *)
  slow_every : int;  (** sleep at attempt start on every k-th job id *)
  slow_s : float;  (** how long slow jobs sleep *)
  first_attempt_only : bool;
      (** inject only on attempt 1, so retried jobs then succeed —
          exercising the recover path rather than retry exhaustion *)
}

val none : plan
val default : plan
(** crash every 5th, I/O-fail every 7th, slow every 11th (offset phases),
    250ms sleep, first attempt only. *)

val crashes : plan -> job_id:int -> bool
val slows : plan -> job_id:int -> bool
(** Predicates the bench uses to predict which jobs were faulted. *)

val hook : plan -> Nocap_serve.Serve.fault_hook
(** The hook to pass to {!Nocap_serve.Serve.create}. Installs the global
    {!Nocap_vec.Spill} I/O fault hook on first use; I/O faults are armed
    per runner domain and cleared at every attempt start, so they cannot
    leak across jobs. *)

val disarm_io_faults : unit -> unit
(** Remove the global spill I/O hook (for test isolation). *)

val malformed_request : int -> Nocap_serve.Serve.request
(** Deterministic malformed tenant inputs (unknown workload, zero scale,
    absurd scale), cycling by index — all must be rejected at admission
    with [Invalid_input]. *)
