(* Long-running proving-service runtime over Engine.t: bounded job queue,
   runner domains, a watchdog enforcing deadlines and backoff, retry with
   exponential backoff + deterministic jitter, demotion of large jobs to a
   stream budget under a memory budget, and graceful drain. DESIGN.md
   Sec. 15.

   Concurrency model: every piece of scheduler state lives under one mutex
   [lock] with two conditions — [work] (runners sleep here for ready jobs)
   and [done_c] (awaiters and drainers sleep here for outcomes). Proving
   itself runs outside the lock on runner *domains* (never systhreads: the
   prover keeps per-domain state in DLS (the ambient cancel token, kernel
   sums and transcript staging buffers), which OS threads on one domain
   would interleave and corrupt). Asynchronous controllers —
   the watchdog, [cancel], signal handlers — never interact with a running
   attempt except through its cooperative Pool.Cancel token, so a stuck or
   crashing job can only ever fail itself. *)

module Pool = Nocap_parallel.Pool
module Engine = Zk_pcs.Engine
module Spill = Nocap_vec.Spill
module R1cs = Zk_r1cs.R1cs
module Rng = Zk_util.Rng
module Benchmarks = Zk_workloads.Benchmarks
module Synthetic = Zk_workloads.Synthetic
module Spartan = Zk_spartan.Spartan

(* --- requests ----------------------------------------------------------- *)

type kind = Prove | Verify of bytes

type request = {
  tenant : string;
  workload : string;
  scale : int;
  kind : kind;
  deadline_s : float option;
}

type outcome =
  | Proof of { bytes : bytes; attempts : int; streamed : bool; elapsed_s : float }
  | Verified of { attempts : int; elapsed_s : float }
  | Failed of { error : Job_error.t; attempts : int }

(* --- workload registry -------------------------------------------------- *)

(* Tenant-facing workload names resolve to the shipped circuit generators.
   Generation is a pure function of (workload, scale) — the synthetic seed
   is derived from the scale — so a retried or offline re-run of the same
   request builds the identical instance, which is what makes proof bytes
   comparable across attempts and against the offline prover. *)

let bench_scale_cap = 64
let synthetic_cap = 1 lsl 15

let workloads () =
  List.map (fun b -> b.Benchmarks.name) Benchmarks.all @ [ "synthetic" ]

let generate_workload ~workload ~scale =
  let invalid fmt = Printf.ksprintf (fun m -> Error (Job_error.Invalid_input m)) fmt in
  if scale <= 0 then invalid "scale must be positive, got %d" scale
  else
    match String.lowercase_ascii workload with
    | "synthetic" ->
      if scale > synthetic_cap then
        invalid "synthetic scale %d exceeds cap %d" scale synthetic_cap
      else begin
        try
          Ok
            (Synthetic.circuit ~n_constraints:scale ~public_seed:true
               ~seed:(Int64.of_int (0x5EED + scale)) ())
        with e -> invalid "synthetic generator: %s" (Printexc.to_string e)
      end
    | name -> (
      match Benchmarks.find name with
      | exception Not_found -> invalid "unknown workload %S" workload
      | b ->
        if scale > bench_scale_cap then
          invalid "%s scale %d exceeds cap %d" name scale bench_scale_cap
        else begin
          try Ok (b.Benchmarks.generate scale)
          with e -> invalid "%s generator: %s" name (Printexc.to_string e)
        end)

(* --- configuration ------------------------------------------------------ *)

type config = {
  capacity : int;
  runners : int;
  max_retries : int;
  backoff_base_s : float;
  backoff_max_s : float;
  default_deadline_s : float option;
  mem_budget_bytes : int option;
  params : Spartan.params;
  seed : int64;
  tick_s : float;
}

let default_config =
  {
    capacity = 64;
    runners = 2;
    max_retries = 2;
    backoff_base_s = 0.01;
    backoff_max_s = 0.5;
    default_deadline_s = None;
    mem_budget_bytes = None;
    params = Spartan.default_params;
    seed = 0x5EC7_1CE5L;
    tick_s = 0.002;
  }

(* --- jobs --------------------------------------------------------------- *)

type state = Queued | Running | Backoff | Finished

type job = {
  id : int;
  req : request;
  (* The generated circuit; [Some] from admission until the job finishes,
     then dropped so retained outcomes don't pin instance + assignment. *)
  mutable data : (R1cs.instance * R1cs.assignment) option;
  submitted_at : float;
  deadline_at : float; (* absolute; infinity when the job has no deadline *)
  rel_deadline : float; (* the relative deadline, for the error payload *)
  mutable state : state;
  mutable attempts : int;
  mutable not_before : float; (* backoff gate *)
  mutable token : Pool.Cancel.token option; (* set while Running *)
  mutable user_cancelled : bool;
  mutable streamed : bool; (* demoted: proves under the stream budget *)
  mutable outcome : outcome option;
}

type stats = {
  submitted : int;
  completed : int;
  failed : int;
  rejected : int;
  invalid : int;
  retries : int;
  timeouts : int;
  cancelled : int;
  demoted : int;
  crashes : int;
  io_failures : int;
}

type fault_hook = stage:string -> job_id:int -> attempt:int -> unit

type t = {
  cfg : config;
  engine : Engine.t;
  stream_engine : Engine.t option; (* engine with the demotion stream budget *)
  fault_hook : fault_hook option;
  lock : Mutex.t;
  work : Condition.t;
  done_c : Condition.t;
  ready : int Queue.t;
  mutable backoff_ids : int list;
  jobs : (int, job) Hashtbl.t;
  mutable next_id : int;
  mutable unfinished : int; (* admitted jobs not yet Finished; admission cap *)
  mutable draining : bool;
  drain_flag : bool Atomic.t; (* set from signal handlers, polled by watchdog *)
  mutable drain_kill_at : float option;
  mutable stopped : bool;
  mutable runners_live : int;
  mutable domains : unit Domain.t list;
  mutable s_submitted : int;
  mutable s_completed : int;
  mutable s_failed : int;
  mutable s_rejected : int;
  mutable s_invalid : int;
  mutable s_retries : int;
  mutable s_timeouts : int;
  mutable s_cancelled : int;
  mutable s_demoted : int;
  mutable s_crashes : int;
  mutable s_io_failures : int;
}

let stats_locked t =
  {
    submitted = t.s_submitted;
    completed = t.s_completed;
    failed = t.s_failed;
    rejected = t.s_rejected;
    invalid = t.s_invalid;
    retries = t.s_retries;
    timeouts = t.s_timeouts;
    cancelled = t.s_cancelled;
    demoted = t.s_demoted;
    crashes = t.s_crashes;
    io_failures = t.s_io_failures;
  }

let stats t =
  Mutex.lock t.lock;
  let s = stats_locked t in
  Mutex.unlock t.lock;
  s

(* --- scheduler internals (all with t.lock held) ------------------------- *)

(* Give back one admission slot and wake whoever may be waiting on it:
   awaiters/drainers parked on [done_c], and — when the last slot of a
   drain frees — runners parked on [work] (they exit on [draining &&
   unfinished = 0]). Every decrement of [unfinished] must go through
   here: the submit error paths release slots that never became jobs,
   and a drainer blocked on [done_c] would otherwise sleep forever if
   such a release is the one that brings [unfinished] to 0. *)
let release_slot_locked t =
  t.unfinished <- t.unfinished - 1;
  Condition.broadcast t.done_c;
  if t.draining && t.unfinished = 0 then Condition.broadcast t.work

let finish_locked t job outcome =
  if job.state <> Finished then begin
    job.state <- Finished;
    job.token <- None;
    job.outcome <- Some outcome;
    (* The circuit is dead weight once the outcome exists: drop it so a
       finished-but-not-yet-forgotten job retains only its outcome, not
       the full instance + assignment. *)
    job.data <- None;
    (match outcome with
    | Proof _ | Verified _ -> t.s_completed <- t.s_completed + 1
    | Failed _ -> t.s_failed <- t.s_failed + 1);
    release_slot_locked t
  end

let fail_deadline_locked t job =
  t.s_timeouts <- t.s_timeouts + 1;
  finish_locked t job
    (Failed
       {
         error = Job_error.Deadline_exceeded job.rel_deadline;
         attempts = job.attempts;
       })

let rec pop_ready_locked t =
  if Queue.is_empty t.ready then None
  else begin
    let id = Queue.pop t.ready in
    (* Entries are removed lazily: a queued job that was cancelled or
       deadline-expired is already Finished and its id just gets skipped. *)
    match Hashtbl.find_opt t.jobs id with
    | Some j when j.state = Queued -> Some j
    | _ -> pop_ready_locked t
  end

(* Exponential backoff with deterministic jitter: delay for attempt k is
   base * 2^(k-1) capped at max, scaled by a factor in [0.75, 1.25) drawn
   from an Rng seeded by (service seed, job id, attempt) — reproducible
   across runs, decorrelated across jobs. *)
let backoff_delay t job =
  let exp = min (job.attempts - 1) 16 in
  let d = t.cfg.backoff_base_s *. Float.of_int (1 lsl exp) in
  let d = Float.min d t.cfg.backoff_max_s in
  let r =
    Rng.create
      (Int64.add t.cfg.seed (Int64.of_int ((job.id * 8191) + job.attempts)))
  in
  d *. (0.75 +. (0.5 *. Rng.float r))

(* --- the attempt body (runs outside the lock) --------------------------- *)

let attempt_body t job ~inst ~asn tok attempt =
  (match t.fault_hook with
  | Some h -> h ~stage:"attempt" ~job_id:job.id ~attempt
  | None -> ());
  let engine =
    match t.stream_engine with
    | Some se when job.streamed -> se
    | _ -> t.engine
  in
  Pool.Cancel.with_token tok @@ fun () ->
  match job.req.kind with
  | Prove ->
    let proof, _stats = Spartan.prove ~engine t.cfg.params inst asn in
    Ok (Some (Spartan.proof_to_bytes proof))
  | Verify blob -> (
    match Spartan.proof_of_bytes blob with
    | Error e -> Error (Job_error.Verify_rejected e)
    | Ok proof -> (
      let io = R1cs.public_io inst asn in
      match Spartan.verify ~engine t.cfg.params inst ~io proof with
      | Ok () -> Ok None
      | Error e -> Error (Job_error.Verify_rejected e)))

(* Runs one attempt of [job]. Called and returns with t.lock held. *)
let run_attempt t job =
  let now = Unix.gettimeofday () in
  if job.user_cancelled then begin
    t.s_cancelled <- t.s_cancelled + 1;
    finish_locked t job
      (Failed
         { error = Job_error.Cancelled "cancelled by client"; attempts = job.attempts })
  end
  else if now > job.deadline_at then fail_deadline_locked t job
  else begin
    let inst, asn =
      match job.data with
      | Some d -> d
      | None -> assert false (* only Finished jobs drop their circuit *)
    in
    (* Demotion decision: demotion picks a budget, not a prover. A job
       whose working set with no budget (one RAM block per phase) would
       blow the configured memory budget runs under the stream engine's
       budget instead, with budget-sized blocks in spill files. The
       estimate is the prover's resident factor (~6 full-length tables
       of 8 bytes/element) over the instance size. *)
    (match t.cfg.mem_budget_bytes with
    | Some budget when (not job.streamed) && 48 * R1cs.size inst > budget ->
      job.streamed <- true;
      t.s_demoted <- t.s_demoted + 1
    | _ -> ());
    let tok = Pool.Cancel.create () in
    job.token <- Some tok;
    job.state <- Running;
    job.attempts <- job.attempts + 1;
    let attempt = job.attempts in
    Mutex.unlock t.lock;
    let result =
      try attempt_body t job ~inst ~asn tok attempt
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        Error (Job_error.of_exn e bt)
    in
    Mutex.lock t.lock;
    job.token <- None;
    let now = Unix.gettimeofday () in
    let elapsed = now -. job.submitted_at in
    match result with
    | Ok payload ->
      (* A result that limps in after the deadline still counts as late:
         the tenant was promised a bound, not a proof. *)
      if now > job.deadline_at then fail_deadline_locked t job
      else begin
        match payload with
        | Some bytes ->
          finish_locked t job
            (Proof { bytes; attempts = job.attempts; streamed = job.streamed; elapsed_s = elapsed })
        | None ->
          finish_locked t job (Verified { attempts = job.attempts; elapsed_s = elapsed })
      end
    | Error err ->
      (* Refine a cooperative cancel: only the scheduler knows which
         controller tripped the token. *)
      let err =
        match err with
        | Job_error.Cancelled _ when job.user_cancelled -> err
        | Job_error.Cancelled _ when now > job.deadline_at ->
          Job_error.Deadline_exceeded job.rel_deadline
        | Job_error.Cancelled "draining" -> Job_error.Draining
        | e -> e
      in
      (match err with
      | Job_error.Worker_crash _ -> t.s_crashes <- t.s_crashes + 1
      | Job_error.Io_failure _ -> t.s_io_failures <- t.s_io_failures + 1
      | _ -> ());
      let retry =
        Job_error.retryable err
        && job.attempts <= t.cfg.max_retries
        && (not job.user_cancelled)
        && (not t.draining) && (not t.stopped)
        && now <= job.deadline_at
      in
      if retry then begin
        t.s_retries <- t.s_retries + 1;
        job.state <- Backoff;
        job.not_before <- now +. backoff_delay t job;
        t.backoff_ids <- job.id :: t.backoff_ids
      end
      else begin
        (match err with
        | Job_error.Deadline_exceeded _ -> t.s_timeouts <- t.s_timeouts + 1
        | Job_error.Cancelled _ -> t.s_cancelled <- t.s_cancelled + 1
        | _ -> ());
        finish_locked t job (Failed { error = err; attempts = job.attempts })
      end
  end

(* --- runner and watchdog domains ---------------------------------------- *)

let runner t () =
  Mutex.lock t.lock;
  let continue = ref true in
  while !continue do
    match pop_ready_locked t with
    | Some job -> run_attempt t job
    | None ->
      if t.stopped || (t.draining && t.unfinished = 0) then continue := false
      else Condition.wait t.work t.lock
  done;
  t.runners_live <- t.runners_live - 1;
  Condition.broadcast t.done_c;
  Mutex.unlock t.lock

let begin_drain_locked t =
  if not t.draining then begin
    t.draining <- true;
    Condition.broadcast t.work;
    Condition.broadcast t.done_c
  end

(* Shed every job that is not actively running; cancel the ones that are. *)
let shed_locked t =
  Hashtbl.iter
    (fun _ j ->
      match j.state with
      | Running -> (
        match j.token with
        | Some tok -> Pool.Cancel.cancel ~reason:"draining" tok
        | None -> ())
      | Queued | Backoff ->
        finish_locked t j (Failed { error = Job_error.Draining; attempts = j.attempts })
      | Finished -> ())
    t.jobs;
  t.backoff_ids <- []

let watchdog t () =
  Mutex.lock t.lock;
  while not t.stopped do
    Mutex.unlock t.lock;
    Unix.sleepf t.cfg.tick_s;
    Mutex.lock t.lock;
    if not t.stopped then begin
      let now = Unix.gettimeofday () in
      if Atomic.get t.drain_flag then begin_drain_locked t;
      (* Backoff bookkeeping: expire deadlines, release due retries. *)
      let keep =
        List.filter
          (fun id ->
            match Hashtbl.find_opt t.jobs id with
            | None -> false
            | Some j ->
              if j.state <> Backoff then false
              else if now > j.deadline_at then begin
                fail_deadline_locked t j;
                false
              end
              else if j.not_before <= now then begin
                j.state <- Queued;
                Queue.push j.id t.ready;
                Condition.broadcast t.work;
                false
              end
              else true)
          t.backoff_ids
      in
      t.backoff_ids <- keep;
      (* Deadline enforcement: queued jobs fail in place, running jobs get
         their token tripped and fail at the next kernel chunk boundary. *)
      Hashtbl.iter
        (fun _ j ->
          if now > j.deadline_at then
            match j.state with
            | Running -> (
              match j.token with
              | Some tok -> Pool.Cancel.cancel ~reason:"deadline" tok
              | None -> ())
            | Queued -> fail_deadline_locked t j
            | Backoff | Finished -> ())
        t.jobs;
      match t.drain_kill_at with
      | Some at when now > at ->
        t.drain_kill_at <- None;
        shed_locked t
      | _ -> ()
    end
  done;
  Mutex.unlock t.lock

(* --- public API --------------------------------------------------------- *)

let create ?engine ?fault_hook ?(config = default_config) () =
  if config.capacity < 1 then invalid_arg "Serve.create: capacity must be >= 1";
  if config.runners < 1 then invalid_arg "Serve.create: runners must be >= 1";
  if config.max_retries < 0 then invalid_arg "Serve.create: max_retries must be >= 0";
  if config.tick_s <= 0. then invalid_arg "Serve.create: tick_s must be positive";
  if config.backoff_base_s < 0. || config.backoff_max_s < 0. then
    invalid_arg "Serve.create: backoff must be non-negative";
  let engine = match engine with Some e -> e | None -> Engine.default () in
  (* Spill hygiene holds from startup, before the first job ever spills. *)
  Spill.install_signal_handlers ();
  let stream_engine =
    Option.map
      (fun budget -> Engine.create ~stream_budget_bytes:(max 65536 (budget / 4)) ())
      config.mem_budget_bytes
  in
  let t =
    {
      cfg = config;
      engine;
      stream_engine;
      fault_hook;
      lock = Mutex.create ();
      work = Condition.create ();
      done_c = Condition.create ();
      ready = Queue.create ();
      backoff_ids = [];
      jobs = Hashtbl.create 64;
      next_id = 0;
      unfinished = 0;
      draining = false;
      drain_flag = Atomic.make false;
      drain_kill_at = None;
      stopped = false;
      runners_live = config.runners;
      domains = [];
      s_submitted = 0;
      s_completed = 0;
      s_failed = 0;
      s_rejected = 0;
      s_invalid = 0;
      s_retries = 0;
      s_timeouts = 0;
      s_cancelled = 0;
      s_demoted = 0;
      s_crashes = 0;
      s_io_failures = 0;
    }
  in
  let runners = List.init config.runners (fun _ -> Domain.spawn (runner t)) in
  let wd = Domain.spawn (watchdog t) in
  t.domains <- wd :: runners;
  t

let submit t req =
  (* Admission control first — capacity is reserved before the (possibly
     expensive) circuit generation, so a burst cannot overshoot the queue
     bound while generators are running. *)
  Mutex.lock t.lock;
  if t.stopped || t.draining then begin
    Mutex.unlock t.lock;
    Error Job_error.Draining
  end
  else if t.unfinished >= t.cfg.capacity then begin
    t.s_rejected <- t.s_rejected + 1;
    Mutex.unlock t.lock;
    Error (Job_error.Queue_full t.cfg.capacity)
  end
  else begin
    t.unfinished <- t.unfinished + 1;
    let id = t.next_id in
    t.next_id <- id + 1;
    Mutex.unlock t.lock;
    (* Generate on the submitting thread: admission-time validation of
       malformed tenant input, and no lazy circuit state ever crosses a
       domain boundary. *)
    match generate_workload ~workload:req.workload ~scale:req.scale with
    | Error e ->
      Mutex.lock t.lock;
      t.s_invalid <- t.s_invalid + 1;
      release_slot_locked t;
      Mutex.unlock t.lock;
      Error e
    | Ok (inst, asn) ->
      let now = Unix.gettimeofday () in
      let rel =
        match req.deadline_s with
        | Some d -> d
        | None -> Option.value t.cfg.default_deadline_s ~default:infinity
      in
      let job =
        {
          id;
          req;
          data = Some (inst, asn);
          submitted_at = now;
          deadline_at = (if rel = infinity then infinity else now +. rel);
          rel_deadline = rel;
          state = Queued;
          attempts = 0;
          not_before = 0.;
          token = None;
          user_cancelled = false;
          streamed = false;
          outcome = None;
        }
      in
      Mutex.lock t.lock;
      if t.stopped || t.draining then begin
        (* Drain raced the generation; shed rather than enqueue. *)
        release_slot_locked t;
        Mutex.unlock t.lock;
        Error Job_error.Draining
      end
      else begin
        Hashtbl.replace t.jobs id job;
        Queue.push id t.ready;
        t.s_submitted <- t.s_submitted + 1;
        Condition.signal t.work;
        Mutex.unlock t.lock;
        Ok id
      end
  end

let peek t id =
  Mutex.lock t.lock;
  let o = Option.bind (Hashtbl.find_opt t.jobs id) (fun j -> j.outcome) in
  Mutex.unlock t.lock;
  o

let await t id =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.jobs id with
  | None ->
    Mutex.unlock t.lock;
    invalid_arg (Printf.sprintf "Serve.await: unknown job %d" id)
  | Some j ->
    while j.outcome = None do
      Condition.wait t.done_c t.lock
    done;
    let o = Option.get j.outcome in
    Mutex.unlock t.lock;
    o

let cancel ?(reason = "cancelled by client") t id =
  Mutex.lock t.lock;
  let cancelled =
    match Hashtbl.find_opt t.jobs id with
    | None -> false
    | Some j -> (
      match j.state with
      | Finished -> false
      | Running ->
        j.user_cancelled <- true;
        (match j.token with
        | Some tok -> Pool.Cancel.cancel ~reason tok
        | None -> ());
        true
      | Queued | Backoff ->
        j.user_cancelled <- true;
        t.s_cancelled <- t.s_cancelled + 1;
        finish_locked t j
          (Failed { error = Job_error.Cancelled reason; attempts = j.attempts });
        true)
  in
  Mutex.unlock t.lock;
  cancelled

let forget t id =
  Mutex.lock t.lock;
  (match Hashtbl.find_opt t.jobs id with
  | Some j when j.state = Finished -> Hashtbl.remove t.jobs id
  | _ -> ());
  Mutex.unlock t.lock

let request_drain t = Atomic.set t.drain_flag true

(* First SIGTERM/SIGINT: graceful — flip the drain flag for the watchdog.
   Any further signal means the drain is stuck (e.g. a job that never
   reaches a cancel check), so escalate: run the saved handler chain —
   which includes Spill's leftover sweep — then restore the default
   disposition and re-raise, so operators can always force-exit through
   the sweep path instead of resorting to SIGKILL (which would skip it). *)
let handle_signals t =
  let sig_count = Atomic.make 0 in
  let saved =
    List.filter_map
      (fun signo ->
        try
          let prev = ref Sys.Signal_default in
          let handler s =
            if Atomic.fetch_and_add sig_count 1 = 0 then request_drain t
            else begin
              (match !prev with
              | Sys.Signal_handle f -> ( try f s with _ -> ())
              | Sys.Signal_ignore | Sys.Signal_default -> Spill.sweep_leftovers ());
              (try Sys.set_signal signo Sys.Signal_default
               with Invalid_argument _ | Sys_error _ -> ());
              (try Unix.kill (Unix.getpid ()) signo
               with Unix.Unix_error _ -> exit 1)
            end
          in
          let p = Sys.signal signo (Sys.Signal_handle handler) in
          prev := p;
          Some (signo, p)
        with Invalid_argument _ | Sys_error _ -> None)
      [ Sys.sigterm; Sys.sigint ]
  in
  fun () ->
    List.iter
      (fun (signo, prev) ->
        try Sys.set_signal signo prev with Invalid_argument _ | Sys_error _ -> ())
      saved

let drain ?grace_s t =
  Mutex.lock t.lock;
  begin_drain_locked t;
  (match grace_s with
  | Some g -> t.drain_kill_at <- Some (Unix.gettimeofday () +. g)
  | None -> ());
  while t.unfinished > 0 do
    Condition.wait t.done_c t.lock
  done;
  Mutex.unlock t.lock

let shutdown ?grace_s t =
  drain ?grace_s t;
  Mutex.lock t.lock;
  t.stopped <- true;
  Condition.broadcast t.work;
  Condition.broadcast t.done_c;
  let s = stats_locked t in
  Mutex.unlock t.lock;
  List.iter Domain.join t.domains;
  t.domains <- [];
  (* Sweep any spill state that escaped deterministic frees (there should
     be none; the finalizer backstop catches pathological paths) so the
     post-shutdown [Spill.live_files] check is meaningful. *)
  Gc.full_major ();
  s

let draining t =
  Mutex.lock t.lock;
  let d = t.draining in
  Mutex.unlock t.lock;
  d
