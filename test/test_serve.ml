(* The fault-tolerant proving service (DESIGN.md Sec. 15) and its kernel
   substrate: cooperative cancellation must be honored by every streaming
   kernel and must leave the shared pool reusable; deadline-expired jobs
   must report Deadline_exceeded (never a success, never a hang); retried
   jobs must produce proofs byte-identical to the offline prover; admission
   control must classify overflow and malformed input; and the PCS
   committed-state lifecycle must tolerate double frees. Each service
   property runs as a QCheck random sweep over its own service instance,
   started with the case and shut down when it ends, so every case leaves
   the thread count where it found it ({!Leak_check}). *)

module Gf = Zk_field.Gf
module Spill = Nocap_vec.Spill
module Pool = Nocap_parallel.Pool
module Rng = Zk_util.Rng
module Engine = Zk_pcs.Engine
module Transcript = Zk_hash.Transcript
module Sumcheck = Zk_sumcheck.Sumcheck
module Orion = Zk_orion.Orion
module Fri_pcs = Zk_orion.Fri_pcs
module Spartan = Zk_spartan.Spartan
module Synthetic = Zk_workloads.Synthetic
module Serve = Nocap_serve.Serve
module Job_error = Nocap_serve.Job_error
module Runtime_faults = Nocap_faults.Runtime_faults

let qcheck ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Offline oracle: the byte-identity reference for every service proof.
   Same params and deterministic circuit generation as the service. *)
let oracle : (string * int, bytes) Hashtbl.t = Hashtbl.create 8

let offline_bytes ~workload ~scale =
  match Hashtbl.find_opt oracle (workload, scale) with
  | Some b -> b
  | None ->
    let inst, asn =
      match Serve.generate_workload ~workload ~scale with
      | Ok ia -> ia
      | Error e -> Alcotest.failf "oracle generate: %s" (Job_error.to_string e)
    in
    let proof, _ = Spartan.prove Spartan.test_params inst asn in
    let b = Spartan.proof_to_bytes proof in
    Hashtbl.add oracle (workload, scale) b;
    b

let submit_ok srv req =
  match Serve.submit srv req with
  | Ok id -> id
  | Error e -> Alcotest.failf "submit rejected: %s" (Job_error.to_string e)

let prove_req ?deadline_s ?(tenant = "test") workload scale =
  { Serve.tenant; workload; scale; kind = Serve.Prove; deadline_s }

(* --- per-case service instances ----------------------------------------- *)

(* A QCheck property over one service built from [config] and
   [fault_hook]: the service starts when the case does and is shut down
   when it ends, with every submitted job accounted for. *)
let qcheck_serve ?count name ?fault_hook config gen prop =
  let srv = ref None in
  let name, speed, run = qcheck ?count name gen (fun x -> prop (Option.get !srv) x) in
  ( name,
    speed,
    fun () ->
      let t = Serve.create ?fault_hook ~config () in
      srv := Some t;
      match run () with
      | () ->
        let s = Serve.shutdown t in
        Alcotest.(check int) "no jobs left behind" s.Serve.submitted
          (s.Serve.completed + s.Serve.failed)
      | exception e ->
        ignore (Serve.shutdown t);
        raise e )

let service_config =
  { Serve.default_config with Serve.capacity = 64; runners = 2; params = Spartan.test_params }

(* Every attempt sleeps far past any deadline the property picks. *)
let slow_hook =
  Runtime_faults.hook
    {
      Runtime_faults.none with
      Runtime_faults.slow_every = 1;
      slow_s = 0.12;
      first_attempt_only = false;
    }

(* Every first attempt crashes; retries must recover. *)
let crash_config =
  { service_config with Serve.max_retries = 2; backoff_base_s = 0.002; backoff_max_s = 0.02 }

let crash_hook = Runtime_faults.hook { Runtime_faults.none with Runtime_faults.crash_every = 1 }

(* No faults, but a memory budget that demotes the synthetic jobs to the
   streaming prover — long enough in flight to cancel mid-kernel. *)
let stream_config = { service_config with Serve.mem_budget_bytes = Some (64 * 1024) }

(* --- cancellation ------------------------------------------------------- *)

(* Each streaming kernel, entered with an already-cancelled ambient token,
   must raise Pool.Cancel.Cancelled at its first chunk boundary — and the
   shared pool must come out reusable (the follow-up clean prove is the
   probe, pinned to the offline bytes). *)
let test_cancel_each_kernel () =
  let cancelled f =
    let tok = Pool.Cancel.create () in
    Pool.Cancel.cancel ~reason:"test" tok;
    match Pool.Cancel.with_token tok f with
    | _ -> Alcotest.fail "kernel ignored a cancelled token"
    | exception Pool.Cancel.Cancelled reason ->
      Alcotest.(check string) "cancel reason" "test" reason
  in
  let inst, asn = Synthetic.circuit ~n_constraints:2048 ~public_seed:true ~seed:0x51EDL () in
  let stream_engine = Engine.create ~stream_budget_bytes:65536 () in
  (* Spartan streaming pipeline (spmv staging + witness commit) *)
  cancelled (fun () -> Spartan.prove ~engine:stream_engine Spartan.test_params inst asn);
  (* Spartan with no budget (one RAM block per phase) *)
  cancelled (fun () -> Spartan.prove Spartan.test_params inst asn);
  (* The M~ gather under a budget: the aborted fill frees its spill file. *)
  let live = Spill.live_files () in
  cancelled (fun () ->
      let rx = Array.init inst.Zk_r1cs.R1cs.log_size (fun i -> Gf.of_int (i + 3)) in
      Spartan.fill_m ~budget:(Some 16384) inst ~rx ~r_abc:[| Gf.one; Gf.two; Gf.of_int 3 |]);
  Alcotest.(check int) "fill_m leaves no spill file" live (Spill.live_files ());
  (* Orion out-of-core commit (row staging loop) *)
  let table =
    Nocap_vec.Fv.of_array (Array.init 1024 (fun i -> Gf.of_int64 (Int64.of_int (i + 1))))
  in
  cancelled (fun () ->
      Orion.commit ~engine:stream_engine
        { Orion.default_params with Orion.rows = 16 }
        (Rng.create 5L) table);
  (* Streaming sumcheck (recompute-halves round loop) *)
  cancelled (fun () ->
      let n = 1024 in
      let mk salt =
        let s = Spill.create ~tag:"test-serve" ~spill:true n in
        let buf = Nocap_vec.Fv.create n in
        for i = 0 to n - 1 do
          Nocap_vec.Fv.set buf i (Gf.of_int64 (Int64.of_int ((salt * n) + i + 1)))
        done;
        Spill.write s ~pos:0 buf;
        s
      in
      let tables = [| mk 1; mk 2 |] in
      Fun.protect ~finally:(fun () -> Array.iter Spill.free tables) @@ fun () ->
      let t = Transcript.create "test-serve" in
      Sumcheck.prove ~budget_bytes:65536 t ~tables ~comb:Sumcheck.Product);
  (* The PCS openings, with and without a budget: a commitment made
     outside the token, opened under it, aborts and leaves no spill file
     behind. *)
  let point = Array.init 10 (fun i -> Gf.of_int64 (Int64.of_int (i + 7))) in
  List.iter
    (fun engine ->
      let orion_params = { Orion.default_params with Orion.rows = 16 } in
      let committed, cm = Orion.commit ~engine orion_params (Rng.create 5L) table in
      let live = Spill.live_files () in
      cancelled (fun () ->
          let t = Transcript.create "test-serve" in
          Orion.absorb_commitment t cm;
          Orion.prove_eval ~engine orion_params committed t point);
      Alcotest.(check int) "orion opening leaves no spill file" live (Spill.live_files ());
      Orion.free_committed committed;
      let committed, cm = Fri_pcs.commit ~engine Fri_pcs.test_params (Rng.create 5L) table in
      let live = Spill.live_files () in
      cancelled (fun () ->
          let t = Transcript.create "test-serve" in
          Fri_pcs.absorb_commitment t cm;
          Fri_pcs.open_at ~engine Fri_pcs.test_params committed t point);
      Alcotest.(check int) "fri opening leaves no spill file" live (Spill.live_files ());
      Fri_pcs.free_committed committed)
    [ Engine.create (); stream_engine ];
  (* The pool survived every abort: a clean prove still works and is
     byte-identical to the oracle. *)
  let proof, _ = Spartan.prove Spartan.test_params inst asn in
  ignore proof;
  Alcotest.(check bool) "probe proves" true
    (Bytes.equal
       (Spartan.proof_to_bytes (fst (Spartan.prove Spartan.test_params inst asn)))
       (Spartan.proof_to_bytes proof))

(* Cancel a streamed service job after a random delay: the outcome is
   either Cancelled (caught mid-kernel) or a byte-identical proof (the
   job won the race) — and the service keeps proving correctly after. *)
let prop_cancel_leaves_pool_reusable =
  qcheck_serve ~count:6 "serve: cancel mid-job, pool stays reusable" stream_config
    QCheck.(int_range 0 25)
    (fun srv delay_ms ->
      let id = submit_ok srv (prove_req "synthetic" 4096) in
      Unix.sleepf (float_of_int delay_ms /. 1000.0);
      ignore (Serve.cancel ~reason:"prop" srv id);
      (match Serve.await srv id with
      | Serve.Failed { error = Job_error.Cancelled _; _ } -> ()
      | Serve.Proof { bytes; _ } ->
        if not (Bytes.equal bytes (offline_bytes ~workload:"synthetic" ~scale:4096)) then
          QCheck.Test.fail_report "winner proof diverged"
      | Serve.Failed { error; _ } ->
        QCheck.Test.fail_reportf "wrong error: %s" (Job_error.to_string error)
      | Serve.Verified _ -> QCheck.Test.fail_report "verified?");
      Serve.forget srv id;
      (* reuse probe: an un-cancelled job must still prove exactly *)
      let probe = submit_ok srv (prove_req "litmus" 1) in
      match Serve.await srv probe with
      | Serve.Proof { bytes; _ } ->
        Serve.forget srv probe;
        Bytes.equal bytes (offline_bytes ~workload:"litmus" ~scale:1)
      | _ -> false)

(* --- deadlines ---------------------------------------------------------- *)

let prop_deadline_expired =
  qcheck_serve ~count:6 "serve: expired deadline reports Deadline_exceeded"
    ~fault_hook:slow_hook service_config
    QCheck.(int_range 5 60)
    (fun srv deadline_ms ->
      let deadline_s = float_of_int deadline_ms /. 1000.0 in
      (* every attempt sleeps 120ms, so any deadline below that expires *)
      let id = submit_ok srv (prove_req ~deadline_s "litmus" 1) in
      match Serve.await srv id with
      | Serve.Failed { error = Job_error.Deadline_exceeded d; attempts } ->
        Serve.forget srv id;
        (* the reported deadline is the relative one we asked for, and a
           permanent error must not burn retries *)
        abs_float (d -. deadline_s) < 1e-9 && attempts <= 1
      | Serve.Failed { error; _ } ->
        QCheck.Test.fail_reportf "wrong error: %s" (Job_error.to_string error)
      | _ -> QCheck.Test.fail_report "slowed job beat an impossible deadline")

(* --- retries ------------------------------------------------------------ *)

let prop_retry_byte_identical =
  qcheck_serve ~count:6 "serve: retried job's proof byte-identical to offline"
    ~fault_hook:crash_hook crash_config
    QCheck.(oneofl [ ("litmus", 1); ("litmus", 2); ("synthetic", 512); ("synthetic", 1024) ])
    (fun srv (workload, scale) ->
      let id = submit_ok srv (prove_req workload scale) in
      match Serve.await srv id with
      | Serve.Proof { bytes; attempts; _ } ->
        Serve.forget srv id;
        (* first attempt always crashes, second succeeds *)
        attempts = 2 && Bytes.equal bytes (offline_bytes ~workload ~scale)
      | Serve.Failed { error; _ } ->
        QCheck.Test.fail_reportf "retried job died: %s" (Job_error.to_string error)
      | Serve.Verified _ -> false)

(* --- admission control -------------------------------------------------- *)

let test_queue_full () =
  let config =
    {
      Serve.default_config with
      Serve.capacity = 2;
      runners = 1;
      params = Spartan.test_params;
    }
  in
  let hook =
    Runtime_faults.hook
      {
        Runtime_faults.none with
        Runtime_faults.slow_every = 1;
        slow_s = 0.05;
        first_attempt_only = false;
      }
  in
  let srv = Serve.create ~fault_hook:hook ~config () in
  Fun.protect ~finally:(fun () -> ignore (Serve.shutdown srv)) @@ fun () ->
  let admitted = ref [] in
  let rejected = ref 0 in
  for _ = 1 to 6 do
    match Serve.submit srv (prove_req "litmus" 1) with
    | Ok id -> admitted := id :: !admitted
    | Error (Job_error.Queue_full cap) ->
      Alcotest.(check int) "reported capacity" 2 cap;
      incr rejected
    | Error e -> Alcotest.failf "wrong rejection: %s" (Job_error.to_string e)
  done;
  Alcotest.(check bool) "burst overflowed" true (!rejected > 0);
  List.iter
    (fun id ->
      match Serve.await srv id with
      | Serve.Proof _ -> ()
      | _ -> Alcotest.fail "admitted job did not prove")
    !admitted;
  let s = Serve.stats srv in
  Alcotest.(check int) "accounting" 6 (s.Serve.submitted + s.Serve.rejected)

let test_invalid_input () =
  let srv =
    Serve.create
      ~config:{ Serve.default_config with Serve.params = Spartan.test_params; runners = 1 }
      ()
  in
  Fun.protect ~finally:(fun () -> ignore (Serve.shutdown srv)) @@ fun () ->
  for i = 0 to 5 do
    match Serve.submit srv (Runtime_faults.malformed_request i) with
    | Error (Job_error.Invalid_input _) -> ()
    | Error e -> Alcotest.failf "malformed #%d misclassified: %s" i (Job_error.to_string e)
    | Ok _ -> Alcotest.failf "malformed #%d admitted" i
  done;
  let s = Serve.stats srv in
  Alcotest.(check int) "invalid counter" 6 s.Serve.invalid;
  Alcotest.(check int) "nothing admitted" 0 s.Serve.submitted

(* --- verify jobs -------------------------------------------------------- *)

let test_verify_kind () =
  let srv =
    Serve.create
      ~config:{ Serve.default_config with Serve.params = Spartan.test_params; runners = 1 }
      ()
  in
  Fun.protect ~finally:(fun () -> ignore (Serve.shutdown srv)) @@ fun () ->
  let good = offline_bytes ~workload:"litmus" ~scale:1 in
  let id =
    submit_ok srv
      { Serve.tenant = "v"; workload = "litmus"; scale = 1; kind = Serve.Verify good;
        deadline_s = None }
  in
  (match Serve.await srv id with
  | Serve.Verified _ -> ()
  | Serve.Failed { error; _ } -> Alcotest.failf "good proof: %s" (Job_error.to_string error)
  | Serve.Proof _ -> Alcotest.fail "proof outcome for a verify job");
  let bad = Bytes.copy good in
  Bytes.set bad (Bytes.length bad / 2) '\xFF';
  let id =
    submit_ok srv
      { Serve.tenant = "v"; workload = "litmus"; scale = 1; kind = Serve.Verify bad;
        deadline_s = None }
  in
  match Serve.await srv id with
  | Serve.Failed { error = Job_error.Verify_rejected _; attempts } ->
    (* a bad proof is the tenant's problem, not a transient fault *)
    Alcotest.(check int) "no retries on rejection" 1 attempts
  | Serve.Failed { error; _ } ->
    Alcotest.failf "wrong classification: %s" (Job_error.to_string error)
  | _ -> Alcotest.fail "corrupted proof accepted"

(* --- drain -------------------------------------------------------------- *)

let test_drain_rejects_new_work () =
  let srv =
    Serve.create
      ~config:{ Serve.default_config with Serve.params = Spartan.test_params; runners = 1 }
      ()
  in
  let id = submit_ok srv (prove_req "litmus" 1) in
  Serve.request_drain srv;
  Serve.drain srv;
  Alcotest.(check bool) "draining" true (Serve.draining srv);
  (match Serve.submit srv (prove_req "litmus" 1) with
  | Error Job_error.Draining -> ()
  | Error e -> Alcotest.failf "wrong error while draining: %s" (Job_error.to_string e)
  | Ok _ -> Alcotest.fail "admitted during drain");
  (* in-flight work finished, not shed *)
  (match Serve.await srv id with
  | Serve.Proof _ -> ()
  | _ -> Alcotest.fail "in-flight job lost during drain");
  ignore (Serve.shutdown srv)

(* Regression (REVIEW): submit's error paths release their reserved
   admission slot without creating a job; if that release is the one that
   brings [unfinished] to 0 it must wake a concurrently blocked drainer —
   the lost-wakeup bug hung the drain forever. Hammer the race: a domain
   spamming invalid submits (reserve slot → generation fails → release)
   while the main flow drains; the drainer must always come back. *)
let test_drain_wakes_on_submit_error () =
  for _round = 1 to 8 do
    let srv =
      Serve.create
        ~config:
          { Serve.default_config with Serve.capacity = 4; runners = 1;
            params = Spartan.test_params }
        ()
    in
    let stop = Atomic.make false in
    let submitter =
      Domain.spawn (fun () ->
          while not (Atomic.get stop) do
            match Serve.submit srv (prove_req "no-such-workload" 1) with
            | Error (Job_error.Invalid_input _ | Job_error.Draining) -> ()
            | Error e -> failwith (Job_error.to_string e)
            | Ok _ -> failwith "invalid workload admitted"
          done)
    in
    let drained = Atomic.make false in
    let drainer =
      Domain.spawn (fun () ->
          Serve.drain srv;
          Atomic.set drained true)
    in
    let deadline = Unix.gettimeofday () +. 5.0 in
    while (not (Atomic.get drained)) && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.001
    done;
    Atomic.set stop true;
    if not (Atomic.get drained) then
      Alcotest.fail "drain hung against a submit error-path slot release";
    Domain.join submitter;
    Domain.join drainer;
    ignore (Serve.shutdown srv)
  done

(* --- committed-state lifecycle ------------------------------------------ *)

let test_free_committed_idempotent () =
  let table =
    Nocap_vec.Fv.of_array (Array.init 1024 (fun i -> Gf.of_int64 (Int64.of_int (i + 3))))
  in
  let params = { Orion.default_params with Orion.rows = 16 } in
  (* RAM-backed commit (no budget): free is a no-op, twice *)
  let committed, _ = Orion.commit params (Rng.create 9L) table in
  Orion.free_committed committed;
  Orion.free_committed committed;
  (* streamed commit: second free must not touch the recycled slot *)
  let live0 = Spill.live_files () in
  let engine = Engine.create ~stream_budget_bytes:65536 () in
  let committed, _ = Orion.commit ~engine params (Rng.create 9L) table in
  Orion.free_committed committed;
  Orion.free_committed committed;
  Orion.free_committed committed;
  Alcotest.(check int) "spill files released" live0 (Spill.live_files ())

(* --- config aggregation ------------------------------------------------- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_config_aggregates_errors () =
  let lookup_of l k = List.assoc_opt k l in
  (match
     Engine.Config.parse
       ~lookup:
         (lookup_of
            [ ("NOCAP_DOMAINS", "zero"); ("NOCAP_STREAM_BUDGET_MB", "-4") ])
   with
  | Ok _ -> Alcotest.fail "malformed config accepted"
  | Error msg ->
    List.iter
      (fun var ->
        if not (contains msg var) then
          Alcotest.failf "aggregate error misses %s: %s" var msg)
      [ "NOCAP_DOMAINS"; "NOCAP_STREAM_BUDGET_MB" ]);
  (* one bad knob must not poison a good one's parse *)
  match
    Engine.Config.parse
      ~lookup:(lookup_of [ ("NOCAP_DOMAINS", "3"); ("NOCAP_STREAM_BUDGET_MB", "x") ])
  with
  | Ok _ -> Alcotest.fail "malformed NOCAP_STREAM_BUDGET_MB accepted"
  | Error msg ->
    Alcotest.(check bool) "names the bad knob" true (contains msg "NOCAP_STREAM_BUDGET_MB");
    Alcotest.(check bool) "does not blame the good knob" false (contains msg "NOCAP_DOMAINS")

(* --- the leak check itself ----------------------------------------------- *)

(* A case that leaves a domain running fails the thread check; the domain
   is joined only after the wrapped case has returned. *)
let test_leak_check_counts_threads () =
  if Sys.file_exists "/proc/self/task" then begin
    let stop = Atomic.make false and leaked = ref None in
    let _, _, leaky =
      Leak_check.wrap
        (Alcotest.test_case "leaky" `Quick (fun () ->
             leaked :=
               Some
                 (Domain.spawn (fun () ->
                      while not (Atomic.get stop) do
                        Unix.sleepf 0.001
                      done))))
    in
    let failed = match leaky () with () -> false | exception _ -> true in
    Atomic.set stop true;
    Option.iter Domain.join !leaked;
    Alcotest.(check bool) "a leaked domain fails the case" true failed
  end

let suite =
  List.map Leak_check.wrap
    [
      Alcotest.test_case "cancel: every kernel honors the token" `Quick test_cancel_each_kernel;
      prop_cancel_leaves_pool_reusable;
      prop_deadline_expired;
      prop_retry_byte_identical;
      Alcotest.test_case "admission: queue overflow rejects" `Quick test_queue_full;
      Alcotest.test_case "admission: malformed input rejects" `Quick test_invalid_input;
      Alcotest.test_case "verify jobs classify rejection" `Quick test_verify_kind;
      Alcotest.test_case "drain stops admission, finishes in-flight" `Quick
        test_drain_rejects_new_work;
      Alcotest.test_case "drain wakes on submit error-path release" `Quick
        test_drain_wakes_on_submit_error;
      Alcotest.test_case "pcs: free_committed is idempotent" `Quick test_free_committed_idempotent;
      Alcotest.test_case "engine config aggregates all errors" `Quick test_config_aggregates_errors;
      Alcotest.test_case "leak check fails a case that leaves a domain running" `Quick
        test_leak_check_counts_threads;
    ]
