(* Proving-service load generator -> BENCH_serve.json.

   Three phases, each against a fresh service instance:

   - [throughput]: clean sustained load (no faults) measuring proofs/s and
     p50/p99 job latency (submit -> finish, including queue wait).
   - [faulted]: the hard smoke gate. Bursts larger than the queue capacity
     under the deterministic Runtime_faults plan (injected worker crashes,
     spill I/O errors, slow jobs) with a memory budget small enough that
     every job demotes to the streaming prover (so the armed spill faults
     actually fire), plus malformed tenant requests. The run must finish
     with zero hangs (a watchdog domain aborts the process otherwise),
     nonzero retry/rejection/invalid/crash/io-failure counters, and every
     surviving proof byte-identical to an offline [Spartan.prove] of the
     same request — re-proved AFTER service shutdown, which doubles as the
     pool-is-still-usable check.
   - [deadline]: every job artificially slowed past a tight deadline; all
     must fail with [Deadline_exceeded] (nonzero timeout counter, no
     retries burned on a permanent error).

   All gates exit 1 through [Bench_report.write]. *)

open Nocap_repro

let schema_id = "nocap-bench-serve/v1"
let wall () = Unix.gettimeofday ()

(* Abort the whole process if the benchmark wedges: the service's no-hang
   property is the point of the exercise, so a deadlocked queue must turn
   into a loud exit 1, not a stuck CI job. *)
let install_hang_guard ~limit_s =
  let finished = Atomic.make false in
  ignore
    (Domain.spawn (fun () ->
         let waited = ref 0.0 in
         while (not (Atomic.get finished)) && !waited < limit_s do
           Unix.sleepf 0.25;
           waited := !waited +. 0.25
         done;
         if not (Atomic.get finished) then begin
           Printf.eprintf "bench serve: HANG — no progress after %.0f s, aborting\n%!" limit_s;
           exit 1
         end));
  finished

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

(* --- throughput --------------------------------------------------------- *)

type throughput = {
  t_jobs : int;
  t_completed : int;
  t_wall_s : float;
  t_proofs_per_s : float;
  t_p50_ms : float;
  t_p99_ms : float;
  t_peak_rss_kb : int;
}

let run_throughput ~smoke =
  let jobs = if smoke then 12 else 48 in
  ignore (Rss.settle_and_reset ());
  let config =
    {
      Serve.default_config with
      Serve.capacity = jobs;
      runners = 2;
      params = Spartan.test_params;
    }
  in
  let srv = Serve.create ~config () in
  let t0 = wall () in
  let ids =
    List.init jobs (fun i ->
        let req =
          {
            Serve.tenant = Printf.sprintf "tenant-%d" (i mod 4);
            workload = "litmus";
            scale = 1;
            kind = Serve.Prove;
            deadline_s = None;
          }
        in
        match Serve.submit srv req with
        | Ok id -> id
        | Error e -> failwith ("throughput submit rejected: " ^ Job_error.to_string e))
  in
  let latencies =
    List.filter_map
      (fun id ->
        match Serve.await srv id with
        | Serve.Proof { elapsed_s; _ } -> Some elapsed_s
        | Serve.Verified _ -> None
        | Serve.Failed { error; _ } ->
          failwith ("throughput job failed: " ^ Job_error.to_string error))
      ids
  in
  let wall_s = wall () -. t0 in
  let stats = Serve.shutdown srv in
  let sorted = Array.of_list latencies in
  Array.sort compare sorted;
  let kb, _ = Rss.peak_rss_kb () in
  {
    t_jobs = jobs;
    t_completed = stats.Serve.completed;
    t_wall_s = wall_s;
    t_proofs_per_s = float_of_int stats.Serve.completed /. max 1e-9 wall_s;
    t_p50_ms = 1e3 *. percentile sorted 0.50;
    t_p99_ms = 1e3 *. percentile sorted 0.99;
    t_peak_rss_kb = kb;
  }

(* --- faulted ------------------------------------------------------------ *)

type faulted = {
  f_stats : Serve.stats;
  f_proofs : int;  (** jobs that survived to a proof *)
  f_byte_identical : bool;  (** every surviving proof = offline prover's *)
  f_offline_proves : int;  (** distinct (workload, scale) re-proved offline *)
  f_pool_reusable : bool;  (** offline proving worked AFTER shutdown *)
  f_peak_rss_kb : int;
}

let run_faulted ~smoke =
  ignore (Rss.settle_and_reset ());
  (* Capacity far below the burst size so admission control must reject,
     and a memory budget below every job's working-set estimate so every
     admitted job demotes to the streaming prover — which is what gives
     the armed spill I/O faults something to fail. *)
  let rounds = if smoke then 3 else 5 in
  let burst = if smoke then 12 else 24 in
  let config =
    {
      Serve.default_config with
      Serve.capacity = 5;
      runners = 2;
      max_retries = 2;
      backoff_base_s = 0.005;
      backoff_max_s = 0.05;
      mem_budget_bytes = Some (64 * 1024);
      params = Spartan.test_params;
    }
  in
  let plan = { Runtime_faults.default with Runtime_faults.slow_s = 0.05 } in
  let srv = Serve.create ~fault_hook:(Runtime_faults.hook plan) ~config () in
  (* Malformed tenant input: all three kinds must bounce at admission. *)
  for i = 0 to 2 do
    match Serve.submit srv (Runtime_faults.malformed_request i) with
    | Error (Job_error.Invalid_input _) -> ()
    | Error e -> failwith ("malformed request misclassified: " ^ Job_error.to_string e)
    | Ok _ -> failwith "malformed request was admitted"
  done;
  (* Burst rounds: submit much faster than the runners drain, await the
     admitted jobs, repeat. Streaming proofs take long enough that each
     burst overflows the 5-slot queue. *)
  let scales = [| 2048; 4096 |] in
  let survived = ref [] in
  for round = 0 to rounds - 1 do
    let admitted = ref [] in
    for i = 0 to burst - 1 do
      let scale = scales.((i + round) mod Array.length scales) in
      let req =
        {
          Serve.tenant = Printf.sprintf "tenant-%d" (i mod 3);
          workload = "synthetic";
          scale;
          kind = Serve.Prove;
          deadline_s = None;
        }
      in
      match Serve.submit srv req with
      | Ok id -> admitted := (id, scale) :: !admitted
      | Error (Job_error.Queue_full _) -> ()
      | Error e -> failwith ("unexpected admission error: " ^ Job_error.to_string e)
    done;
    List.iter
      (fun (id, scale) ->
        match Serve.await srv id with
        | Serve.Proof { bytes; _ } -> survived := (scale, bytes) :: !survived
        | Serve.Verified _ -> ()
        | Serve.Failed { error; _ } ->
          (* Retry exhaustion is impossible under a first-attempt-only
             plan: any failure here is a service bug. *)
          failwith
            (Printf.sprintf "faulted job %d died: %s" id (Job_error.to_string error)))
      (List.rev !admitted)
  done;
  let stats = Serve.shutdown srv in
  Runtime_faults.disarm_io_faults ();
  let kb, _ = Rss.peak_rss_kb () in
  (* Byte-identity vs the offline prover, AFTER shutdown: the shared kernel
     pool survived every injected crash/cancel if these still prove. *)
  let oracle = Hashtbl.create 4 in
  let offline scale =
    match Hashtbl.find_opt oracle scale with
    | Some b -> b
    | None ->
      let inst, asn =
        match Serve.generate_workload ~workload:"synthetic" ~scale with
        | Ok ia -> ia
        | Error e -> failwith (Job_error.to_string e)
      in
      let proof, _ = Spartan.prove Spartan.test_params inst asn in
      let b = Spartan.proof_to_bytes proof in
      Hashtbl.add oracle scale b;
      b
  in
  let byte_identical =
    List.for_all (fun (scale, bytes) -> Bytes.equal bytes (offline scale)) !survived
  in
  {
    f_stats = stats;
    f_proofs = List.length !survived;
    f_byte_identical = byte_identical;
    f_offline_proves = Hashtbl.length oracle;
    f_pool_reusable = Hashtbl.length oracle > 0;
    f_peak_rss_kb = kb;
  }

(* --- deadline ----------------------------------------------------------- *)

type deadline_r = { d_jobs : int; d_timeouts : int; d_retries : int }

let run_deadline ~smoke =
  let jobs = if smoke then 4 else 8 in
  (* Every attempt sleeps well past the deadline; the watchdog must cancel
     each job at the next chunk boundary and report Deadline_exceeded
     without burning retries on a permanent error. *)
  let plan =
    {
      Runtime_faults.none with
      Runtime_faults.slow_every = 1;
      slow_s = 0.2;
      first_attempt_only = false;
    }
  in
  let config =
    {
      Serve.default_config with
      Serve.capacity = jobs;
      runners = 2;
      default_deadline_s = Some 0.04;
      params = Spartan.test_params;
    }
  in
  let srv = Serve.create ~fault_hook:(Runtime_faults.hook plan) ~config () in
  let ids =
    List.init jobs (fun i ->
        match
          Serve.submit srv
            {
              Serve.tenant = "slow";
              workload = "litmus";
              scale = 1;
              kind = Serve.Prove;
              deadline_s = Some (0.02 +. (0.005 *. float_of_int i));
            }
        with
        | Ok id -> id
        | Error e -> failwith ("deadline submit rejected: " ^ Job_error.to_string e))
  in
  let timeouts =
    List.fold_left
      (fun acc id ->
        match Serve.await srv id with
        | Serve.Failed { error = Job_error.Deadline_exceeded _; _ } -> acc + 1
        | Serve.Failed { error; _ } ->
          failwith ("deadline job failed otherwise: " ^ Job_error.to_string error)
        | Serve.Proof _ | Serve.Verified _ ->
          failwith "slowed job beat a deadline shorter than its sleep")
      0 ids
  in
  let stats = Serve.shutdown srv in
  { d_jobs = jobs; d_timeouts = timeouts; d_retries = stats.Serve.retries }

(* --- report --------------------------------------------------------------- *)

let document ~smoke ~rss_source ~spill_leftovers tp fl dl =
  let open Bench_report in
  let open Json_min in
  let s = fl.f_stats in
  [
    ("smoke", Bool smoke);
    ("rss_source", Str rss_source);
    ("spill_leftover_files", int spill_leftovers);
    ( "throughput",
      Obj
        [
          ("jobs", int tp.t_jobs);
          ("completed", int tp.t_completed);
          ("wall_s", Num tp.t_wall_s);
          ("proofs_per_s", Num tp.t_proofs_per_s);
          ("p50_latency_ms", Num tp.t_p50_ms);
          ("p99_latency_ms", Num tp.t_p99_ms);
          ("peak_rss_kb", int tp.t_peak_rss_kb);
        ] );
    ( "faulted",
      Obj
        [
          ("submitted", int s.Serve.submitted);
          ("completed", int s.Serve.completed);
          ("failed", int s.Serve.failed);
          ("rejected", int s.Serve.rejected);
          ("invalid", int s.Serve.invalid);
          ("retries", int s.Serve.retries);
          ("crashes", int s.Serve.crashes);
          ("io_failures", int s.Serve.io_failures);
          ("demoted", int s.Serve.demoted);
          ("timeouts", int s.Serve.timeouts);
          ("cancelled", int s.Serve.cancelled);
          ("surviving_proofs", int fl.f_proofs);
          ("byte_identical", Bool fl.f_byte_identical);
          ("offline_proves", int fl.f_offline_proves);
          ("pool_reusable", Bool fl.f_pool_reusable);
          ("peak_rss_kb", int fl.f_peak_rss_kb);
        ] );
    ( "deadline",
      Obj
        [ ("jobs", int dl.d_jobs); ("timeouts", int dl.d_timeouts); ("retries", int dl.d_retries) ]
    );
  ]

(* The gate battery: counters that must be nonzero, byte identity, pool
   reusability, zero leaked spill files. *)
let gates ~rss_source ~spill_leftovers tp fl dl =
  let s = fl.f_stats in
  [
    (rss_source <> "", "empty rss_source");
    (spill_leftovers = 0, "spill files leaked past shutdown");
    (tp.t_proofs_per_s > 0.0, "throughput must be positive");
    (tp.t_completed = tp.t_jobs, "clean run lost jobs");
    (tp.t_p99_ms >= tp.t_p50_ms, "p99 below p50");
  ]
  @ List.map
      (fun (key, n) -> (n > 0, "faulted." ^ key ^ " must be nonzero"))
      [
        ("submitted", s.Serve.submitted); ("completed", s.Serve.completed);
        ("rejected", s.Serve.rejected); ("invalid", s.Serve.invalid);
        ("retries", s.Serve.retries); ("crashes", s.Serve.crashes);
        ("io_failures", s.Serve.io_failures); ("demoted", s.Serve.demoted);
        ("surviving_proofs", fl.f_proofs);
      ]
  @ [
      (s.Serve.failed = 0, "first-attempt-only faults must all recover");
      (fl.f_byte_identical, "surviving proof diverged from offline prover");
      (fl.f_pool_reusable, "kernel pool unusable after faulted shutdown");
      (dl.d_timeouts > 0, "deadline phase produced no timeouts");
      (dl.d_timeouts = dl.d_jobs, "a slowed job escaped its deadline");
      (dl.d_retries = 0, "deadline errors are permanent; no retries allowed");
    ]

(* --- driver ------------------------------------------------------------- *)

let run ~smoke ~path =
  Bench_report.section "Proving service: throughput, injected faults, deadlines" ~smoke;
  let finished = install_hang_guard ~limit_s:(if smoke then 240.0 else 540.0) in
  let tp = run_throughput ~smoke in
  let fl = run_faulted ~smoke in
  let dl = run_deadline ~smoke in
  Atomic.set finished true;
  let _, rss_source = Rss.peak_rss_kb () in
  let spill_leftovers = Spill.live_files () in
  let s = fl.f_stats in
  Zk_report.Render.table
    ~header:[ "phase"; "jobs"; "ok"; "fail"; "rej"; "inv"; "retry"; "t/o"; "metric" ]
    [
      [
        "throughput"; string_of_int tp.t_jobs; string_of_int tp.t_completed; "0"; "0"; "0";
        "0"; "0";
        Printf.sprintf "%.1f proofs/s, p50 %.0fms p99 %.0fms" tp.t_proofs_per_s tp.t_p50_ms
          tp.t_p99_ms;
      ];
      [
        "faulted";
        string_of_int s.Serve.submitted;
        string_of_int s.Serve.completed;
        string_of_int s.Serve.failed;
        string_of_int s.Serve.rejected;
        string_of_int s.Serve.invalid;
        string_of_int s.Serve.retries;
        string_of_int s.Serve.timeouts;
        Printf.sprintf "%d crashes, %d io faults, %d demoted, bytes %s" s.Serve.crashes
          s.Serve.io_failures s.Serve.demoted
          (if fl.f_byte_identical then "ok" else "DIVERGED");
      ];
      [
        "deadline"; string_of_int dl.d_jobs; "0"; string_of_int dl.d_timeouts; "0"; "0";
        string_of_int dl.d_retries; string_of_int dl.d_timeouts; "all Deadline_exceeded";
      ];
    ];
  Bench_report.write ~path ~schema:schema_id
    ~gates:(gates ~rss_source ~spill_leftovers tp fl dl)
    (document ~smoke ~rss_source ~spill_leftovers tp fl dl)
