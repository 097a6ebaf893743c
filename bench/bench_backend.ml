(* Backend benchmark: times commit / open / verify for every PCS backend on
   the same multilinear table and point, cross-checks the opened value
   against a direct MLE evaluation, and writes BENCH_backend.json through
   [Bench_report.write] with its gates.

   [run ~smoke:true] uses tiny sizes — it backs the @bench-smoke alias that
   tier-1 verify builds, so it must stay fast and loud on regressions. *)

open Nocap_repro

type row = {
  b_name : string;
  b_num_vars : int;
  commit_seconds : float;
  open_seconds : float;
  verify_seconds : float;
  commitment_bytes : int;
  proof_bytes : int;
  queries : int;
}

(* One backend, measured generically through the PCS signature. The same
   table and point go to every backend, so rows are directly comparable. *)
let measure ~smoke (module P : Pcs.S) =
  let params = if smoke then P.test_params else P.default_params in
  let reps = if smoke then 2 else 5 in
  let num_vars = if smoke then 8 else 12 in
  let n = 1 lsl num_vars in
  let rng = Rng.create 0xBACC_E2DL in
  let evals = Array.init n (fun _ -> Gf.random rng) in
  let point = Array.init num_vars (fun _ -> Gf.random rng) in
  let fresh_rng () = Rng.create 0x5EED_BACCL in
  let committed, cm = P.commit params (fresh_rng ()) evals in
  let transcript () =
    let t = Transcript.create ("bench-backend-" ^ P.name) in
    P.absorb_commitment t cm;
    t
  in
  let value, proof = P.open_at params committed (transcript ()) point in
  (* Correctness gates: the opened value must be the MLE evaluation, and the
     verifier must accept — a bench that times a broken backend is worse
     than no bench. *)
  if not (Gf.equal value (Mle_oracle.eval evals point)) then
    failwith (Printf.sprintf "bench backend: %s opened a wrong value" P.name);
  (match P.verify params cm (transcript ()) point value proof with
  | Ok () -> ()
  | Error e ->
    failwith (Printf.sprintf "bench backend: %s rejected its own proof: %s" P.name (Zk_pcs.Verify_error.to_string e)));
  let commit_seconds =
    Bench_report.time_best ~reps (fun () -> P.commit params (fresh_rng ()) evals)
  in
  let open_seconds =
    Bench_report.time_best ~reps (fun () -> P.open_at params committed (transcript ()) point)
  in
  let verify_seconds =
    Bench_report.time_best ~reps (fun () ->
        match P.verify params cm (transcript ()) point value proof with
        | Ok () -> ()
        | Error e -> failwith (Zk_pcs.Verify_error.to_string e))
  in
  let s = P.stats params cm proof in
  {
    b_name = P.name;
    b_num_vars = num_vars;
    commit_seconds;
    open_seconds;
    verify_seconds;
    commitment_bytes = s.Pcs.commitment_bytes;
    proof_bytes = s.Pcs.proof_bytes;
    queries = s.Pcs.queries;
  }

let backends : (module Pcs.S) list = [ (module Orion_pcs); (module Fri_pcs) ]

(* --- report --------------------------------------------------------------- *)

let schema_id = "nocap-bench-backend/v1"

let document rows =
  let open Bench_report in
  let open Json_min in
  [
    ( "backends",
      objs
        (fun r ->
          [
            ("name", Str r.b_name);
            ("num_vars", int r.b_num_vars);
            ("commit_seconds", Num r.commit_seconds);
            ("open_seconds", Num r.open_seconds);
            ("verify_seconds", Num r.verify_seconds);
            ("commitment_bytes", int r.commitment_bytes);
            ("proof_bytes", int r.proof_bytes);
            ("queries", int r.queries);
          ])
        rows );
  ]

(* Both registered backends present, every time and size positive. *)
let gates rows =
  let positive key f = (List.for_all (fun r -> f r > 0.0) rows, key ^ " must be positive") in
  let count f r = float_of_int (f r) in
  [
    (List.length rows >= 2, "need >= 2 backends");
    positive "num_vars" (count (fun r -> r.b_num_vars));
    positive "commit_seconds" (fun r -> r.commit_seconds);
    positive "open_seconds" (fun r -> r.open_seconds);
    positive "verify_seconds" (fun r -> r.verify_seconds);
    positive "commitment_bytes" (count (fun r -> r.commitment_bytes));
    positive "proof_bytes" (count (fun r -> r.proof_bytes));
    positive "queries" (count (fun r -> r.queries));
  ]
  @ Bench_report.require ~what:"backend" (List.map (fun r -> r.b_name) rows) [ "orion"; "fri" ]

(* --- driver ------------------------------------------------------------- *)

let run ~smoke ~path =
  Bench_report.section "PCS backends: Orion vs FRI commit/open/verify" ~smoke;
  let rows = List.map (measure ~smoke) backends in
  Zk_report.Render.table
    ~header:
      [ "backend"; "2^L"; "commit"; "open"; "verify"; "proof bytes"; "queries" ]
    (List.map
       (fun r ->
         [
           r.b_name;
           string_of_int (1 lsl r.b_num_vars);
           Zk_report.Render.seconds r.commit_seconds;
           Zk_report.Render.seconds r.open_seconds;
           Zk_report.Render.seconds r.verify_seconds;
           string_of_int r.proof_bytes;
           string_of_int r.queries;
         ])
       rows);
  Bench_report.write ~path ~schema:schema_id ~gates:(gates rows) (document rows)
