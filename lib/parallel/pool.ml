(* Domain pool with one claim cursor per job.

   A job is a flat loop over [0, n). Every participant, the submitter
   included, claims the next [grain] indices with one fetch-and-add on the
   job's shared cursor until the cursor passes [n]; nothing is pre-assigned
   to a participant, so a worker the OS has not scheduled holds no work
   another participant could need. Publication is an epoch counter:
   workers spin on it for a bounded budget, then park on a condition
   variable guarded by a parked-count handshake, so the submit hot path of
   a busy pipeline is one atomic increment — no mutex, no broadcast. The
   submitter participates too, so a pool of size 1 degenerates to a plain
   loop and progress never depends on workers waking up at all. *)

module Arena = Nocap_vec.Arena

(* --- cooperative cancellation ------------------------------------------- *)

(* A cancel token is one atomic flag shared between a controller (a service
   watchdog, a signal handler) and the kernels doing work on its behalf.
   Kernels never poll the token directly: the ambient token travels with
   the submitting domain via DLS, is re-installed inside every worker chunk,
   and [check] raises {!Cancelled} at the next chunk boundary. Cancellation
   is therefore cooperative and prompt-at-grain-granularity: a claimed chunk
   always runs to completion, everything after it fast-drains through the
   pool's existing failure path. *)
module Cancel = struct
  type token = { flag : bool Atomic.t; mutable why : string }

  exception Cancelled of string

  let create () = { flag = Atomic.make false; why = "cancelled" }

  let cancel ?(reason = "cancelled") t =
    if not (Atomic.get t.flag) then begin
      (* Plain write published by the atomic set below; a second concurrent
         cancel can only race the informational string, never the flag. *)
      t.why <- reason;
      Atomic.set t.flag true
    end

  let is_cancelled t = Atomic.get t.flag
  let reason t = t.why

  let ambient : token option ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref None)

  let current () = !(Domain.DLS.get ambient)

  let with_token tok f =
    let r = Domain.DLS.get ambient in
    let saved = !r in
    r := Some tok;
    Fun.protect ~finally:(fun () -> r := saved) f

  let raise_if_cancelled t = if Atomic.get t.flag then raise (Cancelled t.why)

  let check () =
    match !(Domain.DLS.get ambient) with
    | Some t -> raise_if_cancelled t
    | None -> ()
end

(* --- jobs --------------------------------------------------------------- *)

type job = {
  body : int -> int -> unit; (* half-open chunk [lo, hi) *)
  cancel : Cancel.token option; (* submitter's ambient token, checked per chunk *)
  n : int;
  grain : int;
  next : int Atomic.t; (* claim cursor: first index not yet claimed *)
  remaining : int Atomic.t; (* indices not yet retired *)
  failed : bool Atomic.t;
  mutable exn : (exn * Printexc.raw_backtrace) option;
  exn_lock : Mutex.t;
  waiter : int Atomic.t; (* 1 while the submitter sleeps on completion *)
  done_lock : Mutex.t;
  done_cond : Condition.t;
}

type t = {
  pool_size : int;
  mutable workers : unit Domain.t array;
  epoch : int Atomic.t; (* bumped once per published job *)
  current : job option Atomic.t;
  parked : int Atomic.t; (* workers asleep on park_cond *)
  park_lock : Mutex.t;
  park_cond : Condition.t;
  submit_lock : Mutex.t; (* serializes top-level submissions *)
  shutdown : bool Atomic.t;
}

(* --- spin policy -------------------------------------------------------- *)

(* cpu_relax iterations per microsecond of spin budget — deliberately
   conservative so the budget overshoots rather than parks early. *)
let relax_per_us = 40

(* An idle worker (and a submitter waiting on completion) spins 20µs before
   parking on the OS; a single-core host parks at once, since spinning
   there only steals cycles from whoever has the work. *)
let spin_us = if Domain.recommended_domain_count () <= 1 then 0 else 20

let spin_iters = spin_us * relax_per_us

(* --- grain -------------------------------------------------------------- *)

(* One claimed chunk should amortize ~50µs of work: long enough that the
   claim's fetch-and-add on the shared cursor vanishes in the noise, short
   enough that a 4-way split still load-balances a millisecond-scale
   kernel. *)
let target_chunk_ns = 50_000

let grain_of_ns cost = max 1 (target_chunk_ns / max 1 cost)

(* True while the current domain is executing chunks of some task; nested
   submissions from such a domain run serially instead of deadlocking on
   the single job slot. *)
let in_worker : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

(* --- participation ------------------------------------------------------ *)

let record_exn job e bt =
  Mutex.lock job.exn_lock;
  if job.exn = None then job.exn <- Some (e, bt);
  Mutex.unlock job.exn_lock;
  Atomic.set job.failed true

(* Run one claimed chunk and retire its indices. The last retirer wakes the
   submitter only if it actually went to sleep (waiter handshake mirrors
   the park handshake; both are safe under OCaml's SC atomics). *)
let exec job lo hi =
  (if not (Atomic.get job.failed) then
     try
       match job.cancel with
       | Some tok ->
         Cancel.raise_if_cancelled tok;
         Arena.with_frame (fun () ->
             Cancel.with_token tok (fun () -> job.body lo hi))
       | None -> Arena.with_frame (fun () -> job.body lo hi)
     with e -> record_exn job e (Printexc.get_raw_backtrace ()));
  let old = Atomic.fetch_and_add job.remaining (lo - hi) in
  if old - (hi - lo) = 0 && Atomic.get job.waiter > 0 then begin
    Mutex.lock job.done_lock;
    Condition.broadcast job.done_cond;
    Mutex.unlock job.done_lock
  end

(* Claim [grain] indices at a time from the shared cursor until it passes
   [n]. After a failure the rest of the range is claimed at once and
   retired without running the body — the submitter re-raises anyway.
   The cursor may overshoot [n] by a grain per participant; an index is
   claimed by exactly one fetch-and-add (or the one exchange) whose
   window covers it. *)
let rec claim job =
  if Atomic.get job.failed then begin
    let lo = Atomic.exchange job.next job.n in
    if lo < job.n then exec job lo job.n
  end
  else begin
    let lo = Atomic.fetch_and_add job.next job.grain in
    if lo < job.n then begin
      exec job lo (min job.n (lo + job.grain));
      claim job
    end
  end

let participate job =
  let flag = Domain.DLS.get in_worker in
  let was = !flag in
  flag := true;
  claim job;
  flag := was

(* Submitter-side completion wait: spin briefly (the common case — workers
   are retiring their last chunk), then sleep under the waiter handshake.
   The last retirer reads [waiter] after writing [remaining]; we write
   [waiter] before re-reading [remaining], so under SC atomics at least one
   side always sees the other. *)
let wait_done job =
  if Atomic.get job.remaining > 0 then begin
    let i = ref 0 in
    while !i < spin_iters && Atomic.get job.remaining > 0 do
      Domain.cpu_relax ();
      incr i
    done;
    if Atomic.get job.remaining > 0 then begin
      Atomic.set job.waiter 1;
      Mutex.lock job.done_lock;
      while Atomic.get job.remaining > 0 do
        Condition.wait job.done_cond job.done_lock
      done;
      Mutex.unlock job.done_lock;
      Atomic.set job.waiter 0
    end
  end

(* --- workers ------------------------------------------------------------ *)

let worker pool () =
  let last = ref (Atomic.get pool.epoch) in
  while not (Atomic.get pool.shutdown) do
    let e = Atomic.get pool.epoch in
    if e <> !last then begin
      last := e;
      match Atomic.get pool.current with
      | Some job -> participate job
      | None -> ()
    end
    else begin
      (* Spin-then-park. The parked count is written before re-checking the
         epoch under the lock; the submitter bumps the epoch before reading
         the parked count — so either we see the new epoch and skip the
         wait, or the submitter sees us parked and broadcasts. *)
      let i = ref 0 in
      while !i < spin_iters && Atomic.get pool.epoch = e && not (Atomic.get pool.shutdown) do
        Domain.cpu_relax ();
        incr i
      done;
      if Atomic.get pool.epoch = e && not (Atomic.get pool.shutdown) then begin
        Atomic.incr pool.parked;
        Mutex.lock pool.park_lock;
        while Atomic.get pool.epoch = e && not (Atomic.get pool.shutdown) do
          Condition.wait pool.park_cond pool.park_lock
        done;
        Mutex.unlock pool.park_lock;
        Atomic.decr pool.parked
      end
    end
  done

let clamp_domains d = max 1 (min 128 d)

let create domains =
  let pool_size = clamp_domains domains in
  let pool =
    {
      pool_size;
      workers = [||];
      epoch = Atomic.make 0;
      current = Atomic.make None;
      parked = Atomic.make 0;
      park_lock = Mutex.create ();
      park_cond = Condition.create ();
      submit_lock = Mutex.create ();
      shutdown = Atomic.make false;
    }
  in
  pool.workers <- Array.init (pool_size - 1) (fun _ -> Domain.spawn (worker pool));
  pool

let teardown pool =
  let already = Atomic.exchange pool.shutdown true in
  Mutex.lock pool.park_lock;
  Condition.broadcast pool.park_cond;
  Mutex.unlock pool.park_lock;
  if not already then Array.iter Domain.join pool.workers;
  pool.workers <- [||]

(* --- default pool ------------------------------------------------------ *)

(* Size forced by [with_domains]; wins over the baseline. *)
let forced_default : int option ref = ref None

(* Lower-priority default installed by the engine layer (which owns all
   environment parsing). *)
let baseline_default : int option ref = ref None

let default_domains () =
  match !forced_default with
  | Some d -> d
  | None -> (
    match !baseline_default with
    | Some d -> d
    | None -> clamp_domains (Domain.recommended_domain_count ()))

(* The one process-wide pool, created on first use at [default_domains ()]
   and dropped (joined) whenever that size changes. *)
let default_pool : t option ref = ref None

let drop_default () =
  match !default_pool with
  | Some p ->
    default_pool := None;
    teardown p
  | None -> ()

let at_exit_installed = ref false

let default () =
  match !default_pool with
  | Some p -> p
  | None ->
    let p = create (default_domains ()) in
    default_pool := Some p;
    if not !at_exit_installed then begin
      at_exit_installed := true;
      at_exit drop_default
    end;
    p

let set_baseline_domains d =
  (* Only tear the pool down when the baseline is actually in charge; while
     a forced size is active (e.g. inside with_domains) the live pool stays
     untouched and the baseline takes effect after the force is released. *)
  if !forced_default = None then drop_default ();
  baseline_default := Some (clamp_domains d)

let with_domains d f =
  let saved = !forced_default in
  drop_default ();
  forced_default := Some (clamp_domains d);
  Fun.protect
    ~finally:(fun () ->
      drop_default ();
      forced_default := saved)
    f

(* --- submission --------------------------------------------------------- *)

(* The serial fallback honours the ambient cancel token with the same
   chunk-boundary promptness as the pool path: with a token installed the
   loop runs in bounded slices and re-checks between them, so a size-1 pool
   or a nested call cannot outlive its deadline by a whole kernel. *)
let serial_cancel_slice = 4096

let serial_run body n =
  match Cancel.current () with
  | None -> Arena.with_frame (fun () -> body 0 n)
  | Some tok ->
    Cancel.raise_if_cancelled tok;
    let pos = ref 0 in
    while !pos < n do
      let hi = min n (!pos + serial_cancel_slice) in
      Arena.with_frame (fun () -> body !pos hi);
      pos := hi;
      Cancel.raise_if_cancelled tok
    done

let submit p grain ~n body =
  let job =
    {
      body;
      cancel = Cancel.current ();
      n;
      grain;
      next = Atomic.make 0;
      remaining = Atomic.make n;
      failed = Atomic.make false;
      exn = None;
      exn_lock = Mutex.create ();
      waiter = Atomic.make 0;
      done_lock = Mutex.create ();
      done_cond = Condition.create ();
    }
  in
  Mutex.lock p.submit_lock;
  Atomic.set p.current (Some job);
  Atomic.incr p.epoch;
  (* Wake parked workers only when someone is actually parked: a hot
     pipeline of back-to-back submits keeps workers spinning and never
     touches the lock. *)
  if Atomic.get p.parked > 0 then begin
    Mutex.lock p.park_lock;
    Condition.broadcast p.park_cond;
    Mutex.unlock p.park_lock
  end;
  participate job;
  wait_done job;
  Atomic.set p.current None;
  Mutex.unlock p.submit_lock;
  match job.exn with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let run ~grain ~n body =
  if n > 0 then begin
    let grain = max 1 grain in
    if n < 2 * grain || !(Domain.DLS.get in_worker) then serial_run body n
    else begin
      let p = default () in
      if p.pool_size = 1 || Atomic.get p.shutdown then serial_run body n
      else submit p grain ~n body
    end
  end

let parallel_for ~grain ~n f =
  run ~grain ~n (fun lo hi ->
      for i = lo to hi - 1 do
        f i
      done)

let parallel_init ~grain n f =
  if n <= 0 then [||]
  else begin
    let first = f 0 in
    let out = Array.make n first in
    run ~grain ~n:(n - 1) (fun lo hi ->
        for i = lo to hi - 1 do
          out.(i + 1) <- f (i + 1)
        done);
    out
  end

let fold_chunks ~chunk ~grain ~n ~init ~body ~combine () =
  if n <= 0 then init
  else begin
    (* Chunk geometry is a function of n and chunk only, so the combine
       order below is identical for every pool size and grain. *)
    let chunk = max 1 chunk in
    let nchunks = (n + chunk - 1) / chunk in
    let parts = Array.make nchunks None in
    let run_chunks clo chi =
      for c = clo to chi - 1 do
        Cancel.check ();
        let lo = c * chunk in
        let hi = min (lo + chunk) n in
        parts.(c) <- Some (body lo hi)
      done
    in
    (* Grain arrives in items; convert to whole chunks per claim. The serial
       crossover is checked in items too, before the chunk-count reduction,
       so a cost-calibrated grain means the same thing here as in run. *)
    if n < 2 * max 1 grain then Arena.with_frame (fun () -> run_chunks 0 nchunks)
    else run ~grain:(max 1 (grain / chunk)) ~n:nchunks run_chunks;
    Array.fold_left
      (fun acc part -> match part with Some v -> combine acc v | None -> acc)
      init parts
  end
