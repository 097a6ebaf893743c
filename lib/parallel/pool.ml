(* Work-stealing Domain pool.

   Submission statically slices [0, n) into one packed (lo, hi) range per
   participant, each held in a single atomic int. Owners CAS-claim [grain]
   indices from the bottom of their own range; participants that run dry
   CAS-steal the top half of a victim's range and install it as their new
   own range (Rayon-style splitting). Publication is an epoch counter:
   workers spin on it for a bounded budget, then park on a condition
   variable guarded by a parked-count handshake, so the submit hot path of
   a busy pipeline is one atomic increment — no mutex, no broadcast. The
   submitter participates too, so a pool of size 1 degenerates to a plain
   loop and progress never depends on workers waking up at all. *)

module Arena = Nocap_vec.Arena

(* --- packed ranges ------------------------------------------------------ *)

(* A half-open range [lo, hi) packed as (lo lsl 31) lor hi, both < 2^31.
   Empty iff lo >= hi. Within one job every index is claimed exactly once
   and installs only land in empty slots, so a non-empty packed value never
   repeats — CAS on the raw int is ABA-free. *)

let range_bits = 31
let range_mask = (1 lsl range_bits) - 1
let pack lo hi = (lo lsl range_bits) lor hi
let range_lo r = r lsr range_bits
let range_hi r = r land range_mask

(* Largest [n] a single job can cover; bigger loops run in segments. *)
let max_segment = range_mask

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
  grain : int;
  slots : int Atomic.t array; (* one packed range per participant, strided *)
  remaining : int Atomic.t; (* indices not yet retired *)
  failed : bool Atomic.t;
  mutable exn : (exn * Printexc.raw_backtrace) option;
  exn_lock : Mutex.t;
  waiter : int Atomic.t; (* 1 while the submitter sleeps on completion *)
  done_lock : Mutex.t;
  done_cond : Condition.t;
}

(* Adjacent atomics share cache lines; striding the slot array keeps each
   participant's range ~64B from its neighbours' (atomic blocks are two
   words, allocated back to back). *)
let slot_stride = 4

let slot slots i = Array.unsafe_get slots (i * slot_stride)

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
   conservative so a misconfigured budget overshoots rather than parks
   early. *)
let relax_per_us = 40

(* -1 = unset, use the built-in default: park immediately on single-core
   hosts (spinning there only steals cycles from whoever has the work),
   spin 20µs otherwise. *)
let spin_override = Atomic.make (-1)

let default_spin_us = if Domain.recommended_domain_count () <= 1 then 0 else 20

let spin_us () =
  let v = Atomic.get spin_override in
  if v < 0 then default_spin_us else v

let set_spin_us v = Atomic.set spin_override (if v < 0 then -1 else v)

let spin_iters () = spin_us () * relax_per_us

(* --- grain -------------------------------------------------------------- *)

(* One claimed chunk should amortize ~50µs of work: long enough that claim
   CASes and steal traffic vanish in the noise, short enough that a 4-way
   split still load-balances a millisecond-scale kernel. *)
let target_chunk_ns = 50_000

let grain_of_ns cost = max 1 (target_chunk_ns / max 1 cost)

(* Serial cutoff when the caller gave no cost hint. *)
let default_serial_cutoff = 64

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

(* Claim up to [grain] indices from the bottom of our own range. Only
   thieves contend with the owner, so the CAS almost always lands first
   try. After a failure the whole range is claimed at once and drained
   without running the body — the submitter re-raises anyway. *)
let rec claim_own job me =
  let s = slot job.slots me in
  let r = Atomic.get s in
  let lo = range_lo r and hi = range_hi r in
  if lo >= hi then false
  else begin
    let take = if Atomic.get job.failed then hi - lo else min job.grain (hi - lo) in
    let mid = lo + take in
    if Atomic.compare_and_set s r (pack mid hi) then begin
      exec job lo mid;
      true
    end
    else claim_own job me
  end

(* Steal from a victim's range and install the spoils as our own range (our
   slot is empty whenever this runs). Big ranges split in half; ranges at or
   below one grain are taken whole — a static slice must never strand in
   the slot of a worker the OS hasn't scheduled yet, or the submitter could
   sleep forever on an oversubscribed host. *)
let try_steal job me victim =
  let s = slot job.slots victim in
  let r = Atomic.get s in
  let lo = range_lo r and hi = range_hi r in
  if lo >= hi then false
  else begin
    let mid = if hi - lo <= job.grain then lo else lo + ((hi - lo) / 2) in
    if Atomic.compare_and_set s r (pack lo mid) then begin
      Atomic.set (slot job.slots me) (pack mid hi);
      true
    end
    else false
  end

let steal_round job me nslots =
  let got = ref false in
  let v = ref (me + 1) in
  let tries = ref (nslots - 1) in
  while (not !got) && !tries > 0 do
    let victim = if !v >= nslots then !v - nslots else !v in
    if try_steal job me victim then got := true;
    incr v;
    decr tries
  done;
  !got

(* After this many consecutive empty scans a participant gives up on the
   job: every unretired index is then either inside another participant's
   running [exec] or in the slot of an active owner that will drain it, so
   there is nothing left to help with. The submitter then sleeps in
   [wait_done] (woken by the last retirer) instead of burning a core. *)
let steal_patience = 64

let participate job me nslots =
  let flag = Domain.DLS.get in_worker in
  let was = !flag in
  flag := true;
  let misses = ref 0 in
  let continue = ref true in
  while !continue do
    if claim_own job me then misses := 0
    else if Atomic.get job.remaining = 0 then continue := false
    else if nslots > 1 && steal_round job me nslots then misses := 0
    else begin
      incr misses;
      if !misses > steal_patience then continue := false
      else Domain.cpu_relax ()
    end
  done;
  flag := was

(* Submitter-side completion wait: spin briefly (the common case — workers
   are retiring their last chunk), then sleep under the waiter handshake.
   The last retirer reads [waiter] after writing [remaining]; we write
   [waiter] before re-reading [remaining], so under SC atomics at least one
   side always sees the other. *)
let wait_done job =
  if Atomic.get job.remaining > 0 then begin
    let budget = spin_iters () in
    let i = ref 0 in
    while !i < budget && Atomic.get job.remaining > 0 do
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

let worker pool me () =
  let last = ref (Atomic.get pool.epoch) in
  while not (Atomic.get pool.shutdown) do
    let e = Atomic.get pool.epoch in
    if e <> !last then begin
      last := e;
      match Atomic.get pool.current with
      | Some job -> participate job me pool.pool_size
      | None -> ()
    end
    else begin
      (* Spin-then-park. The parked count is written before re-checking the
         epoch under the lock; the submitter bumps the epoch before reading
         the parked count — so either we see the new epoch and skip the
         wait, or the submitter sees us parked and broadcasts. *)
      let budget = spin_iters () in
      let i = ref 0 in
      while !i < budget && Atomic.get pool.epoch = e && not (Atomic.get pool.shutdown) do
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
  pool.workers <- Array.init (pool_size - 1) (fun i -> Domain.spawn (worker pool (i + 1)));
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

(* One job over [0, n), n <= max_segment. Static slices seed the slots;
   stealing rebalances from there, so a slice that finishes early never
   idles while a neighbour lags. *)
let submit p grain ~n body =
  let nslots = p.pool_size in
  let slots =
    Array.init (nslots * slot_stride) (fun i ->
        if i mod slot_stride <> 0 then Atomic.make 0
        else begin
          let me = i / slot_stride in
          let lo = me * n / nslots and hi = (me + 1) * n / nslots in
          Atomic.make (pack lo hi)
        end)
  in
  let job =
    {
      body;
      cancel = Cancel.current ();
      grain;
      slots;
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
  participate job 0 nslots;
  wait_done job;
  Atomic.set p.current None;
  Mutex.unlock p.submit_lock;
  match job.exn with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let run ?grain ~n body =
  if n > 0 then begin
    let cutoff = match grain with Some g -> 2 * max 1 g | None -> default_serial_cutoff in
    if n < cutoff || !(Domain.DLS.get in_worker) then serial_run body n
    else begin
      let p = default () in
      if p.pool_size = 1 || Atomic.get p.shutdown then serial_run body n
      else begin
        let grain =
          match grain with
          | Some g -> max 1 g
          | None -> max 1 (n / (16 * p.pool_size))
        in
        if n <= max_segment then submit p grain ~n body
        else begin
          (* Ranges pack into 31 bits; astronomically large loops run as a
             sequence of segment-local jobs. *)
          let seg = ref 0 in
          while !seg < n do
            let len = min max_segment (n - !seg) in
            let base = !seg in
            submit p grain ~n:len (fun lo hi -> body (base + lo) (base + hi));
            seg := !seg + len
          done
        end
      end
    end
  end

let parallel_for ?grain ~n f =
  run ?grain ~n (fun lo hi ->
      for i = lo to hi - 1 do
        f i
      done)

let parallel_init ?grain n f =
  if n <= 0 then [||]
  else begin
    let first = f 0 in
    let out = Array.make n first in
    run ?grain ~n:(n - 1) (fun lo hi ->
        for i = lo to hi - 1 do
          out.(i + 1) <- f (i + 1)
        done);
    out
  end

let fold_chunks ?chunk ?grain ~n ~init ~body ~combine () =
  if n <= 0 then init
  else begin
    (* Chunk geometry is a function of n (and the explicit chunk) only, so
       the combine order below is identical for every pool size and grain. *)
    let chunk =
      match chunk with Some c -> max 1 c | None -> max 1 ((n + 63) / 64)
    in
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
    (match grain with
    | Some g when n < 2 * max 1 g -> Arena.with_frame (fun () -> run_chunks 0 nchunks)
    | _ ->
      let grain_chunks = Option.map (fun g -> max 1 (g / chunk)) grain in
      run ?grain:grain_chunks ~n:nchunks run_chunks);
    Array.fold_left
      (fun acc part -> match part with Some v -> combine acc v | None -> acc)
      init parts
  end
