(** Task-serial timing simulator (the paper's evaluation methodology,
    Sec. VII: "a simulator executes this program, keeping track of the FU and
    memory bandwidth usage of each task").

    Each task's latency is the roofline maximum of its per-resource service
    times — NoCap's decoupled data orchestration overlaps loads with compute
    inside a task (Sec. IV-C), and tasks execute one at a time (Sec. V).
    Shrinking the register file below the default spills sumcheck
    recomputation intermediates to HBM, inflating that task's traffic
    (Sec. VIII-D). *)

type resource = Mul | Add | Hash | Ntt | Shuffle | Hbm

val resource_name : resource -> string

type task_timing = {
  task : Workload.task;
  cycles : float;
  bound_by : resource;
  compute_cycles : (resource * float) list; (** service time per FU *)
  hbm_bytes : float; (** after any register-file spill inflation *)
}

type result = {
  config : Config.t;
  tasks : task_timing list;
  total_cycles : float;
  total_seconds : float;
  fu_utilization : (resource * float) list;
      (** busy fraction of each resource over the whole run *)
  compute_utilization : float; (** multiply-FU busy fraction, the paper's
                                    "overall utilization of compute" metric *)
  total_hbm_bytes : float;
}

val run : Config.t -> Workload.t -> result

val task_fraction : result -> Workload.task -> float
(** Share of total runtime (Fig. 6a). *)

val traffic_fraction : result -> Workload.task -> float
(** Share of HBM traffic (Fig. 6b). *)
