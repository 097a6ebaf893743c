(* Stream-budget benchmark -> BENCH_stream.json.

   The prover has one path; a stream budget makes its blocks budget-sized
   and spills them to temp files, and no budget runs it as one RAM block
   per phase. Three sections compare the two:

   - [endtoend]: the full Spartan pipeline under a budget vs with no
     budget, for both PCS backends. Proof BYTES MUST BE EQUAL — this is
     the hard gate (exit 1 otherwise), and the flagship entry is a
     2^16-constraint Orion proof under an artificially tiny budget that
     must actually spill.
   - [commit]: Orion's commit under a budget over a PRG row producer (the
     table never exists in RAM), with the matrix aspect chosen so the
     column working set is constant — peak RSS should stay flat while N
     doubles, where a no-budget commit grows linearly.
   - [sumcheck]: the recompute-halves sumcheck over spilled tables under
     a budget vs the same sizes with no budget.

   The JSON keeps its v1 keys: "streaming" is the budgeted run and
   "in_memory" the no-budget run.

   Peak RSS comes from the {!Rss} probe, reset before each phase. Every
   endtoend proof runs in its own child process (circuit built there), so
   its peak is that proof's footprint plus its circuit, never an earlier
   row's heap; the commit and sumcheck phases run in this process, budgeted
   before no-budget and ascending in N, so a monotonic probe cannot charge
   a budgeted run with an earlier no-budget peak. *)

open Nocap_repro

let schema_id = "nocap-bench-stream/v1"
let wall () = Unix.gettimeofday ()

(* Deterministic per-index field element; the commit section's "table". *)
let gf_of_index i =
  let x = Int64.of_int (i + 1) in
  let x = Int64.mul x 0x9E3779B97F4A7C15L in
  let x = Int64.logxor x (Int64.shift_right_logical x 29) in
  Gf.of_int64 (Int64.shift_right_logical x 1)

(* [floor_rss_kb] is the settled RSS the phase started from (for an
   endtoend row, its circuit and the heap its generation left resident). *)
type phase = { seconds : float; peak_rss_kb : int; floor_rss_kb : int }

let measure f =
  ignore (Rss.settle_and_reset ());
  let floor_rss_kb = Rss.current_rss_kb () in
  let t0 = wall () in
  let r = f () in
  let seconds = wall () -. t0 in
  let kb, _ = Rss.peak_rss_kb () in
  (r, { seconds; peak_rss_kb = kb; floor_rss_kb })

(* --- endtoend ----------------------------------------------------------- *)

type endtoend = {
  e_backend : string;
  e_constraints_log2 : int;
  e_budget : int;
  e_bytes_equal : bool;
  e_spill_bytes : int;
  e_budgeted : phase;
  e_no_budget : phase;
}

let endtoend_sizes ~smoke =
  (* (backend, constraints_log2, budget_bytes); the Orion 2^16 entry under
     a 1 MiB budget is the smoke gate. The FRI 2^14 entry under 64 KiB is
     small enough a budget that the opening streams too: its sumcheck
     tables and fold layers spill, and the queries read the layers back
     from their files. *)
  if smoke then [ ("orion", 16, 1 lsl 20); ("fri", 11, 1 lsl 18) ]
  else
    [
      ("orion", 16, 1 lsl 20);
      ("orion", 18, 4 lsl 20);
      ("orion", 20, 16 lsl 20);
      ("fri", 12, 1 lsl 19);
      ("fri", 14, 1 lsl 20);
      ("fri", 14, 64 lsl 10);
    ]

let prove_bytes ~engine backend inst asn =
  match backend with
  | "orion" ->
    let params = { Spartan.pcs = { Orion.default_params with Orion.rows = 64 }; repetitions = 1 } in
    let proof, _ = Spartan.prove ?engine params inst asn in
    Spartan.proof_to_bytes proof
  | _ ->
    let params = { Spartan_fri.pcs = Fri_pcs.test_params; repetitions = 1 } in
    let proof, _ = Spartan_fri.prove ?engine params inst asn in
    Spartan_fri.proof_to_bytes proof

(* [main.exe stream-row BACKEND LOG2 BUDGET budgeted|none]: one endtoend
   proof in a fresh process. It builds the circuit, settles, times the
   proof and prints one line: the proof's sha3, seconds, peak and floor
   RSS in KiB, and bytes spilled. *)
let row_main = function
  | [ backend; lg; budget; mode ] ->
    let inst, asn =
      Synthetic.circuit ~n_constraints:(1 lsl int_of_string lg) ~public_seed:true
        ~seed:0xBEEFL ()
    in
    let engine =
      if mode = "budgeted" then
        Some (Engine.create ~stream_budget_bytes:(int_of_string budget) ())
      else None
    in
    Spill.reset_counters ();
    let bytes, ph = measure (fun () -> prove_bytes ~engine backend inst asn) in
    Printf.printf "%s %.9f %d %d %d\n" (Keccak.to_hex (Keccak.sha3_256 bytes)) ph.seconds
      ph.peak_rss_kb ph.floor_rss_kb (Spill.spilled_bytes_total ())
  | _ -> failwith "usage: stream-row BACKEND LOG2 BUDGET budgeted|none"

(* Each endtoend proof runs in a child process of this executable, so its
   peak RSS is its own and not the heap earlier rows left in this one.
   A child, not a fork: OCaml 5 refuses [Unix.fork] once any domain has
   been spawned, and the bench harness has spawned the pool by then. *)
let prove_in_child (backend, lg, budget) ~budgeted =
  let args =
    [| Sys.executable_name; "stream-row"; backend; string_of_int lg; string_of_int budget;
       (if budgeted then "budgeted" else "none") |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let line = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 ->
    Scanf.sscanf line " %s %f %d %d %d" (fun digest seconds peak_rss_kb floor_rss_kb spilled ->
        (digest, { seconds; peak_rss_kb; floor_rss_kb }, spilled))
  | _ -> failwith "bench stream: endtoend child failed"

let run_endtoend ~smoke =
  List.map
    (fun ((backend, lg, budget) as case) ->
      let s_digest, s_ph, spill_bytes = prove_in_child case ~budgeted:true in
      let m_digest, m_ph, _ = prove_in_child case ~budgeted:false in
      {
        e_backend = backend;
        e_constraints_log2 = lg;
        e_budget = budget;
        e_bytes_equal = String.equal s_digest m_digest;
        e_spill_bytes = spill_bytes;
        e_budgeted = s_ph;
        e_no_budget = m_ph;
      })
    (endtoend_sizes ~smoke)

(* --- commit ------------------------------------------------------------- *)

type commit_row = {
  c_log_n : int;
  c_budget : int;
  c_rows : int;
  c_cols : int;
  c_spill_bytes : int;
  c_phase : phase;
}

let run_commit ~smoke =
  (* Fixed column count: the per-column working set (sponge bank, Merkle
     tree) is then constant, so with the row stream spilling, peak RSS is
     budget-bound and flat as N doubles. *)
  let cols_log2 = if smoke then 8 else 10 in
  let budget = if smoke then 1 lsl 18 else 1 lsl 22 in
  let sizes = if smoke then [ 14; 15; 16 ] else [ 18; 19; 20; 21; 22 ] in
  List.map
    (fun log_n ->
      let rows = 1 lsl (log_n - cols_log2) in
      let params = { Orion.default_params with Orion.rows } in
      Spill.reset_counters ();
      let (), ph =
        measure (fun () ->
            let committed, _cm =
              Orion.commit_stream params (Rng.create 7L) ~num_vars:log_n
                ~read:(fun ~pos dst ->
                  for i = 0 to Fv.length dst - 1 do
                    Fv.set dst i (gf_of_index (pos + i))
                  done)
                ~budget_bytes:budget
            in
            Orion.free_committed committed)
      in
      {
        c_log_n = log_n;
        c_budget = budget;
        c_rows = rows;
        c_cols = 1 lsl cols_log2;
        c_spill_bytes = Spill.spilled_bytes_total ();
        c_phase = ph;
      })
    sizes

(* --- sumcheck ----------------------------------------------------------- *)

type sumcheck_row = {
  s_log_n : int;
  s_budget : int;
  s_budgeted : phase;
  s_no_budget : phase;
  s_equal : bool;
}

let run_sumcheck ~smoke =
  let budget = if smoke then 1 lsl 18 else 1 lsl 22 in
  let sizes = if smoke then [ 14; 15; 16 ] else [ 18; 20; 22 ] in
  (* budgeted first (spilled PRG tables), then the same sizes with no budget *)
  let streamed =
    List.map
      (fun log_n ->
        let n = 1 lsl log_n in
        let make_table salt =
          let s = Spill.create ~tag:"bench-sc" ~spill:true n in
          let block = 1 lsl 14 in
          let buf = Fv.create (min block n) in
          let pos = ref 0 in
          while !pos < n do
            let len = min (Fv.length buf) (n - !pos) in
            let v = Fv.sub_view buf ~pos:0 ~len in
            for i = 0 to len - 1 do
              Fv.set v i (gf_of_index ((salt * n) + !pos + i))
            done;
            Spill.write s ~pos:!pos v;
            pos := !pos + len
          done;
          s
        in
        let r, ph =
          measure (fun () ->
              let tables = [| make_table 1; make_table 2 |] in
              let t = Transcript.create "bench-stream" in
              let r =
                Sumcheck.prove ~budget_bytes:budget t ~tables ~comb:Sumcheck.Product
              in
              Array.iter Spill.free tables;
              r)
        in
        (log_n, r, ph))
      sizes
  in
  List.map
    (fun (log_n, streamed_r, s_ph) ->
      let n = 1 lsl log_n in
      let no_budget_r, m_ph =
        measure (fun () ->
            let tables =
              [|
                Array.init n (fun i -> gf_of_index (n + i));
                Array.init n (fun i -> gf_of_index ((2 * n) + i));
              |]
            in
            let t = Transcript.create "bench-stream" in
            Sumcheck.prove t ~tables:(Sumcheck_oracle.spills tables) ~comb:Sumcheck.Product)
      in
      {
        s_log_n = log_n;
        s_budget = budget;
        s_budgeted = s_ph;
        s_no_budget = m_ph;
        s_equal =
          streamed_r.Sumcheck.proof = no_budget_r.Sumcheck.proof
          && streamed_r.Sumcheck.challenges = no_budget_r.Sumcheck.challenges;
      })
    streamed

(* --- report --------------------------------------------------------------- *)

let document ~smoke ~rss_source ~resettable endtoend commits sumchecks =
  let open Bench_report in
  let open Json_min in
  let phase p =
    Obj
      [
        ("seconds", Num p.seconds);
        ("peak_rss_kb", int p.peak_rss_kb);
        ("floor_rss_kb", int p.floor_rss_kb);
      ]
  in
  let slowdown b n = Num (b.seconds /. max 1e-9 n.seconds) in
  [
    ("smoke", Bool smoke);
    ("rss_source", Str rss_source);
    ("rss_resettable", Bool resettable);
    ( "endtoend",
      objs
        (fun e ->
          [
            ("backend", Str e.e_backend);
            ("constraints_log2", int e.e_constraints_log2);
            ("budget_bytes", int e.e_budget);
            ("bytes_equal", Bool e.e_bytes_equal);
            ("spill_bytes", int e.e_spill_bytes);
            ("streaming", phase e.e_budgeted);
            ("in_memory", phase e.e_no_budget);
            ("slowdown", slowdown e.e_budgeted e.e_no_budget);
          ])
        endtoend );
    ( "commit",
      objs
        (fun c ->
          [
            ("log_n", int c.c_log_n);
            ("budget_bytes", int c.c_budget);
            ("rows", int c.c_rows);
            ("cols", int c.c_cols);
            ("spill_bytes", int c.c_spill_bytes);
            ("seconds", Num c.c_phase.seconds);
            ("peak_rss_kb", int c.c_phase.peak_rss_kb);
          ])
        commits );
    ( "sumcheck",
      objs
        (fun s ->
          [
            ("log_n", int s.s_log_n);
            ("budget_bytes", int s.s_budget);
            ("proof_equal", Bool s.s_equal);
            ("streaming", phase s.s_budgeted);
            ("in_memory", phase s.s_no_budget);
            ("slowdown", slowdown s.s_budgeted s.s_no_budget);
          ])
        sumchecks );
  ]

(* Every budgeted proof and sumcheck matches its no-budget run, the
   flagship endtoend entry (orion @ 2^16 constraints, 1 MiB budget) and
   every streamed commit actually spilled, and every timed phase is
   positive. *)
let gates ~rss_source endtoend commits sumchecks =
  let flagship =
    List.find_opt (fun e -> e.e_backend = "orion" && e.e_constraints_log2 = 16) endtoend
  in
  [
    (rss_source <> "", "empty rss_source");
    (List.length endtoend >= 2, "need >= 2 endtoend entries");
    (List.for_all (fun e -> e.e_budget > 0) endtoend, "budget must be positive");
    ( List.for_all (fun e -> e.e_budgeted.seconds > 0.0 && e.e_no_budget.seconds > 0.0) endtoend,
      "endtoend seconds must be positive" );
    (flagship <> None, "2^16 gate entry missing");
    ( (match flagship with Some e -> e.e_spill_bytes > 0 | None -> true),
      "2^16 gate entry never spilled (budget too large?)" );
    (List.length commits >= 3, "need >= 3 commit sizes");
    (List.for_all (fun c -> c.c_spill_bytes > 0) commits, "streamed commit must spill");
    (List.for_all (fun c -> c.c_phase.seconds > 0.0) commits, "commit seconds must be positive");
    (List.length sumchecks >= 2, "need >= 2 sumcheck sizes");
  ]
  @ List.map
      (fun e ->
        ( e.e_bytes_equal,
          Printf.sprintf "%s 2^%d budgeted proof bytes DIVERGED from no budget" e.e_backend
            e.e_constraints_log2 ))
      endtoend
  @ List.map (fun s -> (s.s_equal, Printf.sprintf "sumcheck 2^%d diverged" s.s_log_n)) sumchecks

(* --- driver ------------------------------------------------------------- *)

let run ~smoke ~path =
  Bench_report.section "One prover path: stream budget vs no budget (one RAM block)" ~smoke;
  let resettable = Rss.settle_and_reset () in
  (* The commit ladder runs first, before the sumcheck tables grow this
     process's heap; the endtoend proofs run in child processes. *)
  let commits = run_commit ~smoke in
  let sumchecks = run_sumcheck ~smoke in
  let endtoend = run_endtoend ~smoke in
  let _, rss_source = Rss.peak_rss_kb () in
  Zk_report.Render.table
    ~header:
      [
        "backend"; "2^c"; "budget"; "equal"; "spilled"; "budgeted"; "no budget"; "floor";
        "rss bud"; "rss none";
      ]
    (List.map
       (fun e ->
         [
           e.e_backend;
           string_of_int e.e_constraints_log2;
           Printf.sprintf "%dK" (e.e_budget / 1024);
           (if e.e_bytes_equal then "yes" else "NO");
           Printf.sprintf "%dK" (e.e_spill_bytes / 1024);
           Zk_report.Render.seconds e.e_budgeted.seconds;
           Zk_report.Render.seconds e.e_no_budget.seconds;
           Printf.sprintf "%dM" (e.e_budgeted.floor_rss_kb / 1024);
           Printf.sprintf "%dM" (e.e_budgeted.peak_rss_kb / 1024);
           Printf.sprintf "%dM" (e.e_no_budget.peak_rss_kb / 1024);
         ])
       endtoend);
  Zk_report.Render.table
    ~header:[ "commit 2^n"; "rows x cols"; "budget"; "spilled"; "time"; "peak rss" ]
    (List.map
       (fun c ->
         [
           string_of_int c.c_log_n;
           Printf.sprintf "%dx%d" c.c_rows c.c_cols;
           Printf.sprintf "%dK" (c.c_budget / 1024);
           Printf.sprintf "%dK" (c.c_spill_bytes / 1024);
           Zk_report.Render.seconds c.c_phase.seconds;
           Printf.sprintf "%dM" (c.c_phase.peak_rss_kb / 1024);
         ])
       commits);
  Zk_report.Render.table
    ~header:[ "sumcheck 2^n"; "equal"; "budgeted"; "no budget"; "rss bud"; "rss none" ]
    (List.map
       (fun s ->
         [
           string_of_int s.s_log_n;
           (if s.s_equal then "yes" else "NO");
           Zk_report.Render.seconds s.s_budgeted.seconds;
           Zk_report.Render.seconds s.s_no_budget.seconds;
           Printf.sprintf "%dM" (s.s_budgeted.peak_rss_kb / 1024);
           Printf.sprintf "%dM" (s.s_no_budget.peak_rss_kb / 1024);
         ])
       sumchecks);
  Bench_report.write ~path ~schema:schema_id
    ~gates:(gates ~rss_source endtoend commits sumchecks)
    (document ~smoke ~rss_source ~resettable endtoend commits sumchecks)
