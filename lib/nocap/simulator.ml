type resource = Mul | Add | Hash | Ntt | Shuffle | Hbm

let resource_name = function
  | Mul -> "mul"
  | Add -> "add"
  | Hash -> "hash"
  | Ntt -> "ntt"
  | Shuffle -> "shuffle"
  | Hbm -> "hbm"

type task_timing = {
  task : Workload.task;
  cycles : float;
  bound_by : resource;
  compute_cycles : (resource * float) list;
  hbm_bytes : float;
}

type result = {
  config : Config.t;
  tasks : task_timing list;
  total_cycles : float;
  total_seconds : float;
  fu_utilization : (resource * float) list;
  compute_utilization : float;
  total_hbm_bytes : float;
}

(* Register-file spill model (Sec. VIII-D): below the default 8 MB, the
   sumcheck recomputation intermediates no longer fit and spill, inflating the
   task's HBM traffic sharply; extra capacity beyond 8 MB brings nothing. *)
let spill_factor (config : Config.t) (w : Workload.work) =
  let default_mb = Config.default.Config.regfile_mb in
  if (not w.Workload.spill_sensitive) || config.Config.regfile_mb >= default_mb then 1.0
  else 1.0 +. (2.0 *. ((default_mb /. config.Config.regfile_mb) -. 1.0))

let time_task (config : Config.t) (task, (w : Workload.work)) =
  let bytes = w.Workload.hbm_bytes *. spill_factor config w in
  let per_resource =
    [
      (Mul, w.Workload.mul_ops /. float_of_int config.Config.mul_lanes);
      (Add, w.Workload.add_ops /. float_of_int config.Config.add_lanes);
      (Hash, w.Workload.hash_bytes /. (8.0 *. float_of_int config.Config.hash_lanes));
      (Ntt, w.Workload.ntt_butterflies /. float_of_int config.Config.ntt_lanes);
      (Shuffle, w.Workload.shuffle_ops /. float_of_int config.Config.shuffle_lanes);
      (Hbm, bytes /. Config.hbm_bytes_per_cycle config);
    ]
  in
  let bound_by, cycles =
    List.fold_left
      (fun (br, bc) (r, c) -> if c > bc then (r, c) else (br, bc))
      (Mul, 0.0) per_resource
  in
  {
    task;
    cycles;
    bound_by;
    compute_cycles = List.filter (fun (r, _) -> r <> Hbm) per_resource;
    hbm_bytes = bytes;
  }

let run config workload =
  let tasks = List.map (time_task config) workload in
  let total_cycles = List.fold_left (fun acc t -> acc +. t.cycles) 0.0 tasks in
  let total_seconds = total_cycles /. (config.Config.freq_ghz *. 1e9) in
  let busy r =
    List.fold_left
      (fun acc t ->
        acc
        +.
        if r = Hbm then t.hbm_bytes /. Config.hbm_bytes_per_cycle config
        else List.assoc r t.compute_cycles)
      0.0 tasks
  in
  let resources = [ Mul; Add; Hash; Ntt; Shuffle; Hbm ] in
  let fu_utilization = List.map (fun r -> (r, busy r /. total_cycles)) resources in
  (* Area-weighted average busy fraction of the compute FUs (Table II
     weights) — the paper's "overall utilization of compute resources". *)
  let compute_utilization =
    let weights = [ (Mul, 6.34); (Add, 0.96); (Hash, 0.84); (Ntt, 1.80) ] in
    let num, den =
      List.fold_left
        (fun (n, d) (r, w) -> (n +. (w *. List.assoc r fu_utilization), d +. w))
        (0.0, 0.0) weights
    in
    num /. den
  in
  {
    config;
    tasks;
    total_cycles;
    total_seconds;
    fu_utilization;
    compute_utilization;
    total_hbm_bytes = List.fold_left (fun acc t -> acc +. t.hbm_bytes) 0.0 tasks;
  }

let task_fraction result task =
  let t = List.find (fun t -> t.task = task) result.tasks in
  t.cycles /. result.total_cycles

let traffic_fraction result task =
  let t = List.find (fun t -> t.task = task) result.tasks in
  t.hbm_bytes /. result.total_hbm_bytes
