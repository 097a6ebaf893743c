(* Stream-budget benchmark -> BENCH_stream.json.

   The prover has one path; a stream budget makes its blocks budget-sized
   and spills them to temp files, and no budget runs it as one RAM block
   per phase. Three sections compare the two:

   - [endtoend]: the full Spartan pipeline under a budget vs with no
     budget, for both PCS backends. Proof BYTES MUST BE EQUAL — this is
     the hard gate (exit 1 otherwise), and in smoke mode the flagship
     entry is a 2^16-constraint Orion proof under an artificially tiny
     budget that must actually spill.
   - [commit]: Orion's commit under a budget over a PRG row producer (the
     table never exists in RAM), with the matrix aspect chosen so the
     column working set is constant — peak RSS should stay flat while N
     doubles, where a no-budget commit grows linearly.
   - [sumcheck]: the recompute-halves sumcheck over spilled tables under
     a budget vs the same sizes with no budget.

   The JSON keeps its v1 keys: "streaming" is the budgeted run and
   "in_memory" the no-budget run.

   Peak RSS comes from the {!Rss} probe; all budgeted phases run BEFORE
   the no-budget phases (ascending N, with a high-water-mark reset in
   between) so a monotonic probe cannot charge a budgeted run with an
   earlier no-budget peak. *)

open Nocap_repro

let schema_id = "nocap-bench-stream/v1"
let wall () = Unix.gettimeofday ()

(* Deterministic per-index field element; the commit section's "table". *)
let gf_of_index i =
  let x = Int64.of_int (i + 1) in
  let x = Int64.mul x 0x9E3779B97F4A7C15L in
  let x = Int64.logxor x (Int64.shift_right_logical x 29) in
  Gf.of_int64 (Int64.shift_right_logical x 1)

type phase = { seconds : float; peak_rss_kb : int }

let measure f =
  ignore (Rss.settle_and_reset ());
  let t0 = wall () in
  let r = f () in
  let seconds = wall () -. t0 in
  let kb, _ = Rss.peak_rss_kb () in
  (r, { seconds; peak_rss_kb = kb })

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
     a 1 MiB budget is the smoke gate. *)
  if smoke then [ ("orion", 16, 1 lsl 20); ("fri", 11, 1 lsl 18) ]
  else
    [
      ("orion", 16, 1 lsl 20);
      ("orion", 18, 4 lsl 20);
      ("orion", 20, 16 lsl 20);
      ("fri", 12, 1 lsl 19);
      ("fri", 14, 1 lsl 20);
    ]

let run_endtoend ~smoke =
  let cases = endtoend_sizes ~smoke in
  let circuits =
    List.map
      (fun (backend, lg, budget) ->
        let inst, asn =
          Synthetic.circuit ~n_constraints:(1 lsl lg) ~public_seed:true ~seed:0xBEEFL ()
        in
        (backend, lg, budget, inst, asn))
      cases
  in
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
  in
  (* budgeted phases first, ascending *)
  let streamed =
    List.map
      (fun (backend, lg, budget, inst, asn) ->
        Spill.reset_counters ();
        let engine = Some (Engine.create ~stream_budget_bytes:budget ()) in
        let bytes, ph = measure (fun () -> prove_bytes ~engine backend inst asn) in
        (backend, lg, budget, bytes, ph, Spill.spilled_bytes_total ()))
      circuits
  in
  List.map2
    (fun (backend, lg, budget, s_bytes, s_ph, spill_bytes) (_, _, _, inst, asn) ->
      let m_bytes, m_ph = measure (fun () -> prove_bytes ~engine:None backend inst asn) in
      {
        e_backend = backend;
        e_constraints_log2 = lg;
        e_budget = budget;
        e_bytes_equal = Bytes.equal s_bytes m_bytes;
        e_spill_bytes = spill_bytes;
        e_budgeted = s_ph;
        e_no_budget = m_ph;
      })
    streamed circuits

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

let comb2 v out = Fv.mul_into ~dst:out v.(0) v.(1)

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
        let claim = ref Gf.zero in
        let r, ph =
          measure (fun () ->
              let tables = [| make_table 1; make_table 2 |] in
              (* claim = sum of products, computed blockwise *)
              let block = min (1 lsl 14) n in
              let buf0 = Fv.create block and buf1 = Fv.create block in
              let prod = Fv.create block in
              let pos = ref 0 in
              while !pos < n do
                let len = min block (n - !pos) in
                let p = Fv.sub_view prod ~pos:0 ~len in
                Fv.mul_into ~dst:p
                  (Spill.view tables.(0) ~pos:!pos ~len ~buf:buf0)
                  (Spill.view tables.(1) ~pos:!pos ~len ~buf:buf1);
                claim := Gf.add !claim (Fv.sum p);
                pos := !pos + len
              done;
              let t = Transcript.create "bench-stream" in
              let r =
                Sumcheck.prove_streaming ~comb_mults:1 ~budget_bytes:budget t ~degree:2
                  ~tables ~comb:comb2 ~claim:!claim
              in
              Array.iter Spill.free tables;
              r)
        in
        (log_n, r, ph, !claim))
      sizes
  in
  List.map
    (fun (log_n, streamed_r, s_ph, claim) ->
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
            Sumcheck.prove ~comb_mults:1 t ~degree:2 ~tables ~comb:comb2 ~claim)
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

(* --- JSON + schema ------------------------------------------------------ *)

let json_of ~smoke ~rss_source ~resettable endtoend commits sumchecks =
  let buf = Buffer.create 4096 in
  let adds fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let add_phase name p =
    adds "      \"%s\": {\"seconds\": %.6f, \"peak_rss_kb\": %d},\n" name p.seconds
      p.peak_rss_kb
  in
  adds "{\n";
  adds "  \"schema\": %S,\n" schema_id;
  adds "  \"smoke\": %b,\n" smoke;
  adds "  \"rss_source\": %S,\n" rss_source;
  adds "  \"rss_resettable\": %b,\n" resettable;
  adds "  \"endtoend\": [\n";
  List.iteri
    (fun i e ->
      adds "    {\n";
      adds "      \"backend\": %S,\n" e.e_backend;
      adds "      \"constraints_log2\": %d,\n" e.e_constraints_log2;
      adds "      \"budget_bytes\": %d,\n" e.e_budget;
      adds "      \"bytes_equal\": %b,\n" e.e_bytes_equal;
      adds "      \"spill_bytes\": %d,\n" e.e_spill_bytes;
      add_phase "streaming" e.e_budgeted;
      add_phase "in_memory" e.e_no_budget;
      adds "      \"slowdown\": %.4f\n"
        (e.e_budgeted.seconds /. (max 1e-9 e.e_no_budget.seconds));
      adds "    }%s\n" (if i = List.length endtoend - 1 then "" else ","))
    endtoend;
  adds "  ],\n";
  adds "  \"commit\": [\n";
  List.iteri
    (fun i c ->
      adds
        "    {\"log_n\": %d, \"budget_bytes\": %d, \"rows\": %d, \"cols\": %d, \
         \"spill_bytes\": %d, \"seconds\": %.6f, \"peak_rss_kb\": %d}%s\n"
        c.c_log_n c.c_budget c.c_rows c.c_cols c.c_spill_bytes c.c_phase.seconds
        c.c_phase.peak_rss_kb
        (if i = List.length commits - 1 then "" else ","))
    commits;
  adds "  ],\n";
  adds "  \"sumcheck\": [\n";
  List.iteri
    (fun i s ->
      adds "    {\n";
      adds "      \"log_n\": %d,\n" s.s_log_n;
      adds "      \"budget_bytes\": %d,\n" s.s_budget;
      adds "      \"proof_equal\": %b,\n" s.s_equal;
      add_phase "streaming" s.s_budgeted;
      add_phase "in_memory" s.s_no_budget;
      adds "      \"slowdown\": %.4f\n"
        (s.s_budgeted.seconds /. (max 1e-9 s.s_no_budget.seconds));
      adds "    }%s\n" (if i = List.length sumchecks - 1 then "" else ","))
    sumchecks;
  adds "  ]\n";
  adds "}\n";
  Buffer.contents buf

open Json_min

let validate_schema (s : string) : (unit, string) result =
  try
    let j = parse_json s in
    if as_str (field j "schema") <> schema_id then raise (Bad_json "wrong schema id");
    ignore (as_bool (field j "smoke"));
    if as_str (field j "rss_source") = "" then raise (Bad_json "empty rss_source");
    ignore (as_bool (field j "rss_resettable"));
    let endtoend = as_list (field j "endtoend") in
    if List.length endtoend < 2 then raise (Bad_json "need >= 2 endtoend entries");
    let has_spill = ref false in
    List.iter
      (fun e ->
        ignore (as_str (field e "backend"));
        ignore (as_num (field e "constraints_log2"));
        if not (as_num (field e "budget_bytes") > 0.0) then
          raise (Bad_json "budget must be positive");
        if not (as_bool (field e "bytes_equal")) then
          raise (Bad_json "budgeted proof bytes diverged from no budget");
        if as_num (field e "spill_bytes") > 0.0 then has_spill := true;
        List.iter
          (fun ph ->
            let p = field e ph in
            if not (as_num (field p "seconds") > 0.0) then
              raise (Bad_json "seconds must be positive");
            ignore (as_num (field p "peak_rss_kb")))
          [ "streaming"; "in_memory" ])
      endtoend;
    if not !has_spill then raise (Bad_json "no endtoend entry actually spilled");
    let commits = as_list (field j "commit") in
    if List.length commits < 3 then raise (Bad_json "need >= 3 commit sizes");
    List.iter
      (fun c ->
        ignore (as_num (field c "log_n"));
        if not (as_num (field c "spill_bytes") > 0.0) then
          raise (Bad_json "streamed commit must spill");
        if not (as_num (field c "seconds") > 0.0) then
          raise (Bad_json "commit seconds must be positive"))
      commits;
    let sumchecks = as_list (field j "sumcheck") in
    if List.length sumchecks < 2 then raise (Bad_json "need >= 2 sumcheck sizes");
    List.iter
      (fun s ->
        if not (as_bool (field s "proof_equal")) then
          raise (Bad_json "budgeted sumcheck diverged from no budget"))
      sumchecks;
    Ok ()
  with Bad_json msg -> Error msg

(* --- driver ------------------------------------------------------------- *)

let run ?(smoke = false) ?(path = "BENCH_stream.json") () =
  Zk_report.Render.section
    (Printf.sprintf "One prover path: stream budget vs no budget (one RAM block)%s"
       (if smoke then " (smoke)" else ""));
  let resettable = Rss.settle_and_reset () in
  (* The commit ladder runs FIRST: the OCaml heap never shrinks back after
     the big endtoend phases, so running it later would bury its flat,
     budget-bound RSS profile under the endtoend phases' heap floor. *)
  let commits = run_commit ~smoke in
  let sumchecks = run_sumcheck ~smoke in
  let endtoend = run_endtoend ~smoke in
  let _, rss_source = Rss.peak_rss_kb () in
  Zk_report.Render.table
    ~header:
      [ "backend"; "2^c"; "budget"; "equal"; "spilled"; "budgeted"; "no budget"; "rss bud"; "rss none" ]
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
  (* Hard gates: every budgeted proof must match its no-budget bytes, and
     the flagship smoke entry (orion @ 2^16 constraints, 1 MiB budget) must
     actually have spilled. *)
  List.iter
    (fun e ->
      if not e.e_bytes_equal then begin
        Printf.eprintf
          "bench stream: %s 2^%d budgeted proof bytes DIVERGED from no budget\n%!"
          e.e_backend e.e_constraints_log2;
        exit 1
      end)
    endtoend;
  (match
     List.find_opt
       (fun e -> e.e_backend = "orion" && e.e_constraints_log2 = 16)
       endtoend
   with
  | Some e when e.e_spill_bytes = 0 ->
    Printf.eprintf "bench stream: 2^16 gate entry never spilled (budget too large?)\n%!";
    exit 1
  | Some _ -> ()
  | None ->
    Printf.eprintf "bench stream: 2^16 gate entry missing\n%!";
    exit 1);
  List.iter
    (fun s ->
      if not s.s_equal then begin
        Printf.eprintf "bench stream: sumcheck 2^%d diverged\n%!" s.s_log_n;
        exit 1
      end)
    sumchecks;
  let json = json_of ~smoke ~rss_source ~resettable endtoend commits sumchecks in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  (match validate_schema json with
  | Ok () -> Printf.printf "wrote %s (schema %s, valid)\n%!" path schema_id
  | Error msg ->
    Printf.eprintf "BENCH_stream.json failed schema validation: %s\n%!" msg;
    exit 1);
  (endtoend, commits, sumchecks)
