(* Steady end-to-end benchmark of the Spartan prover.

   usage: prover_bench.exe --workload NAME --seed N --seconds S --trace 0|1

   One closed-loop client proves one seeded circuit back to back for S
   seconds, as a caller of `nocap-cli prove` or of a Serve runner does:
   every proof is serialized, byte-compared with the reference proof made
   during set-up, decoded and verified. The last line of stdout is one JSON
   object of raw samples, which run.py reduces to the metrics named in
   BENCHMARK.json.

   Set-up is what a fresh process pays before its first proof is out:
   circuit generation plus that first (cold) proof. It runs once per
   process; run.py takes the median over its processes.

   Next to every timed set-up and proof the program also times a pass over
   a fixed 4 MiB buffer, warmed by an untimed pass first so the timed one
   does not depend on what the prover left in the caches. On a shared host
   the memory system slows for minutes at a time with other tenants' load;
   the scan time records how much.

   With --trace 1 the loop runs a second Spartan instance built over a PCS
   wrapper that records a span around every commit, opening and PCS
   verification; the IOP share (SpMV, both sumchecks, eq tables,
   transcript) is the prove span's self time. Each traced proof must be
   byte-identical to the untraced reference, so the layer split is taken
   from exactly the work the end-to-end numbers measure. *)

open Nocap_repro

let now = Unix.gettimeofday
let min_proofs = 3

(* --- workloads ------------------------------------------------------------ *)

type backend = Orion_backend | Fri_backend

type workload = {
  name : string;
  backend : backend;
  scale : int;  (** the generator's scale argument, as `nocap-cli --scale` *)
  budget : int option;  (** prover memory budget: selects the streaming path *)
  generate : scale:int -> seed:int64 -> R1cs.instance * R1cs.assignment;
}

let litmus ~scale ~seed =
  let rows = 8 in
  let transactions = Litmus_circuit.random_transactions (Rng.create seed) ~rows ~count:scale in
  Litmus_circuit.circuit ~rows ~transactions ~seed:(Int64.succ seed) ()

(* The shipped circuits `nocap-cli prove` and the Serve runtime accept
   (Benchmarks.all), through the same generators, with the seed taken from
   --seed instead of Benchmarks' fixed one, at Serve's scale cap of 64.
   Why these four: Litmus, the Serve runtime's default workload, is the
   low-density end (density 0.95 relative to AES) and Auction the
   high-density end (1.89), which scales SpMV and sumcheck work per
   constraint; RSA runs the same IOP over the NTT-heavy FRI backend
   (`--pcs fri`); litmus-stream proves the Litmus circuit again on the
   streaming prover with the 64 KiB budget a Serve job is demoted to under
   a small memory budget, so the Spill layer is on the blocking path there
   and bypassed on litmus — and its proofs must match the in-memory
   prover's bytes. The prover uses Spartan.default_params (three
   repetitions), as Serve does, on the default domain count. *)
let workloads =
  [
    { name = "litmus"; backend = Orion_backend; scale = 64; budget = None; generate = litmus };
    {
      name = "auction";
      backend = Orion_backend;
      scale = 64;
      budget = None;
      generate = (fun ~scale ~seed -> Auction_circuit.circuit ~bids:scale ~seed ());
    };
    {
      name = "rsa-fri";
      backend = Fri_backend;
      scale = 16;
      budget = None;
      generate = (fun ~scale ~seed -> Modexp.circuit ~instances:scale ~seed ());
    };
    {
      name = "litmus-stream";
      backend = Orion_backend;
      scale = 64;
      budget = Some 65536;
      generate = litmus;
    };
  ]

(* --- spans ---------------------------------------------------------------- *)

(* Per-proof accumulators: seconds and allocated bytes by span name. *)
let span_time : (string, float) Hashtbl.t = Hashtbl.create 8
let span_alloc : (string, float) Hashtbl.t = Hashtbl.create 8

let add tbl name v =
  Hashtbl.replace tbl name (v +. Option.value ~default:0. (Hashtbl.find_opt tbl name))

let span name f =
  let t0 = now () and a0 = Gc.allocated_bytes () in
  Fun.protect f ~finally:(fun () ->
      add span_time name (now () -. t0);
      add span_alloc name (Gc.allocated_bytes () -. a0))

let take_span tbl name = Option.value ~default:0. (Hashtbl.find_opt tbl name)

(* The PCS layer with a span around each call into it. Name and tag are
   the wrapped backend's, so a Spartan instance over it writes the same
   transcript and the same proof bytes. *)
module Traced (P : Pcs.S) = struct
  include P

  let commit ?engine params rng table =
    span "pcs_commit" (fun () -> P.commit ?engine params rng table)

  let open_at ?engine params committed transcript point =
    span "pcs_open" (fun () -> P.open_at ?engine params committed transcript point)

  let verify ?engine params cm transcript point value proof =
    span "pcs_verify" (fun () -> P.verify ?engine params cm transcript point value proof)
end

module Spartan_orion_traced = Spartan.Make (Traced (Orion_pcs))
module Spartan_fri_traced = Spartan.Make (Traced (Fri_pcs))

(* --- one prover, abstracted over backend and tracing ---------------------- *)

type stats = { sumcheck_mults : int; spmv_mults : int; transcript_hashes : int }

type prover = {
  prove : Engine.t -> R1cs.instance -> R1cs.assignment -> seed:int -> bytes * stats;
  verify_bytes :
    Engine.t -> R1cs.instance -> io:Gf.t array -> bytes -> (unit, string) result * float;
      (** result and the seconds spent decoding *)
}

let prover_of (module S : Spartan.S) =
  let params = S.default_params in
  let prove engine inst asn ~seed =
    let proof, (st : S.prover_stats) =
      S.prove ~engine ~rng:(Rng.create (Int64.of_int seed)) params inst asn
    in
    ( S.proof_to_bytes proof,
      {
        sumcheck_mults = st.S.sumcheck_mults;
        spmv_mults = st.S.spmv_mults;
        transcript_hashes = st.S.transcript_hashes;
      } )
  in
  let verify_bytes engine inst ~io bytes =
    let t0 = now () in
    let decoded = S.proof_of_bytes bytes in
    let decode_s = now () -. t0 in
    let r =
      match decoded with
      | Error e -> Error (Verify_error.to_string e)
      | Ok proof -> (
        match S.verify ~engine params inst ~io proof with
        | Ok () -> Ok ()
        | Error e -> Error (Verify_error.to_string e))
    in
    (r, decode_s)
  in
  { prove; verify_bytes }

let provers backend ~traced =
  match (backend, traced) with
  | Orion_backend, false -> prover_of (module Spartan)
  | Orion_backend, true -> prover_of (module Spartan_orion_traced)
  | Fri_backend, false -> prover_of (module Spartan_fri)
  | Fri_backend, true -> prover_of (module Spartan_fri_traced)

(* --- measurement ---------------------------------------------------------- *)

(* Larger than the per-core L2, so a pass measures the shared cache and
   memory system the prover's working set lives in. Benchmark code only:
   no change to the program can make it faster or slower. *)
let scan_buf = Bytes.make (4 lsl 20) '\001'

let sum_scan_buf () =
  let acc = ref 0 in
  for i = 0 to (Bytes.length scan_buf / 8) - 1 do
    acc := !acc + Int64.to_int (Bytes.get_int64_le scan_buf (i * 8))
  done;
  ignore (Sys.opaque_identity !acc)

let scan_ms () =
  sum_scan_buf ();
  let t0 = now () in
  sum_scan_buf ();
  1000. *. (now () -. t0)

let peak_rss_mb () =
  let kb =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec go () =
            match In_channel.input_line ic with
            | None -> None
            | Some line -> (
              try Scanf.sscanf line "VmHWM: %d kB" Option.some with _ -> go ())
          in
          go ())
    with Sys_error _ -> None
  in
  match kb with
  | Some kb -> float_of_int kb /. 1024.
  | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1048576.

(* Flip one bit in each quarter of the proof: the verifier must reject
   every such proof. *)
let tampered_accepted (p : prover) engine inst ~io bytes =
  let n = Bytes.length bytes in
  List.length
    (List.filter
       (fun k ->
         let b = Bytes.copy bytes in
         let pos = 8 + (k * (n - 9) / 3) in
         Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
         Result.is_ok (fst (p.verify_bytes engine inst ~io b)))
       [ 0; 1; 2; 3 ])

let json_string s =
  let safe c = if c = '"' || c = '\\' || c < ' ' || c > '~' then '?' else c in
  "\"" ^ String.map safe s ^ "\""

let json_floats xs =
  "[" ^ String.concat "," (List.map (Printf.sprintf "%.6f") (List.rev xs)) ^ "]"

let run wl ~seed ~seconds ~trace =
  let engine = Engine.create ?stream_budget_bytes:wl.budget () in
  Engine.tune_gc engine;
  let plain = provers wl.backend ~traced:false in
  let errors = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let fail msg =
    incr failed;
    if List.length !errors < 5 then errors := msg :: !errors
  in
  (* Set-up: generate the circuit and make the reference proof. *)
  let setup_scan0 = scan_ms () in
  let t0 = now () in
  let inst, asn = wl.generate ~scale:wl.scale ~seed:(Int64.of_int seed) in
  let t1 = now () in
  incr attempted;
  let ref_bytes, ref_stats = plain.prove engine inst asn ~seed in
  let setup_s = now () -. t0 and circuit_gen_s = t1 -. t0 in
  let setup_scan_ms = (setup_scan0 +. scan_ms ()) /. 2. in
  let io = R1cs.public_io inst asn in
  (match fst (plain.verify_bytes engine inst ~io ref_bytes) with
  | Ok () -> ()
  | Error e ->
    prerr_endline ("reference proof rejected: " ^ e);
    exit 1);
  if tampered_accepted plain engine inst ~io ref_bytes > 0 then
    fail "verifier accepted a tampered proof";
  let p = if trace then provers wl.backend ~traced:true else plain in
  let prove_ms = ref [] and verify_ms = ref [] and scans = ref [] in
  let layers = Hashtbl.create 16 in
  let record name v =
    Hashtbl.replace layers name (v :: Option.value ~default:[] (Hashtbl.find_opt layers name))
  in
  Spill.reset_counters ();
  let t_start = now () in
  let t_end = t_start +. seconds in
  let completed = ref 0 in
  (* After a failure, stop at the deadline even if too few proofs passed. *)
  while now () < t_end || (!completed < min_proofs && !failed = 0) do
    incr attempted;
    Hashtbl.reset span_time;
    Hashtbl.reset span_alloc;
    let spill0 = Spill.spilled_bytes_total () in
    let scan0 = scan_ms () in
    let a0 = Gc.allocated_bytes () in
    let t0 = now () in
    match p.prove engine inst asn ~seed with
    | exception e -> fail ("prove raised " ^ Printexc.to_string e)
    | bytes, _ -> (
      let t1 = now () in
      let prove_alloc = Gc.allocated_bytes () -. a0 in
      let spilled = Spill.spilled_bytes_total () - spill0 in
      let t2 = now () in
      let result, decode_s = p.verify_bytes engine inst ~io bytes in
      let t3 = now () in
      if not (Bytes.equal bytes ref_bytes) then fail "proof bytes differ from the reference"
      else
        match result with
        | Error e -> fail ("proof rejected: " ^ e)
        | Ok () ->
          incr completed;
          scans := ((scan0 +. scan_ms ()) /. 2.) :: !scans;
          let ms s = 1000. *. s in
          prove_ms := ms (t1 -. t0) :: !prove_ms;
          verify_ms := ms (t3 -. t2 -. decode_s) :: !verify_ms;
          if trace then begin
            let commit = take_span span_time "pcs_commit" in
            let opening = take_span span_time "pcs_open" in
            let pcs_verify = take_span span_time "pcs_verify" in
            record "prove_traced_ms" (ms (t1 -. t0));
            record "pcs_commit_ms" (ms commit);
            record "pcs_open_ms" (ms opening);
            record "iop_ms" (ms (t1 -. t0 -. commit -. opening));
            record "verify_traced_ms" (ms (t3 -. t2 -. decode_s));
            record "pcs_verify_ms" (ms pcs_verify);
            record "verify_iop_ms" (ms (t3 -. t2 -. decode_s -. pcs_verify));
            record "decode_ms" (ms decode_s);
            record "prove_alloc_mb" (prove_alloc /. 1048576.);
            record "pcs_commit_alloc_mb" (take_span span_alloc "pcs_commit" /. 1048576.);
            record "spill_written_mb" (float_of_int spilled /. 1048576.)
          end)
  done;
  let elapsed = now () -. t_start in
  (* Read before the check below, whose in-memory proof would otherwise set
     the streaming workload's high-water mark. *)
  let peak_rss = peak_rss_mb () in
  (* The streaming prover must write the in-memory prover's bytes. *)
  (match wl.budget with
  | None -> ()
  | Some _ ->
    incr attempted;
    let in_memory, _ = plain.prove (Engine.create ()) inst asn ~seed in
    if not (Bytes.equal in_memory ref_bytes) then fail "streaming and in-memory bytes differ");
  let layer_json =
    Hashtbl.fold (fun k v acc -> Printf.sprintf "%S:%s" k (json_floats v) :: acc) layers []
  in
  Printf.printf
    "{\"workload\":%S,\"scale\":%d,\"log_size\":%d,\"domains\":%d,\"native\":%S,\
     \"correct\":%b,\"attempted\":%d,\"failed\":%d,\"completed\":%d,\"elapsed_s\":%.6f,\
     \"setup_s\":%.6f,\"circuit_gen_s\":%.6f,\"setup_scan_ms\":%.6f,\
     \"prove_ms\":%s,\"verify_ms\":%s,\"scan_ms\":%s,\"peak_rss_mb\":%.3f,\
     \"proof_bytes\":%d,\"sumcheck_mults\":%d,\"spmv_mults\":%d,\"transcript_hashes\":%d,\
     \"layers\":{%s},\"errors\":[%s]}\n"
    wl.name wl.scale inst.R1cs.log_size (Pool.default_domains ())
    (Native.mode_to_string (Native.mode ()))
    (!failed = 0) !attempted !failed !completed elapsed setup_s circuit_gen_s setup_scan_ms
    (json_floats !prove_ms) (json_floats !verify_ms) (json_floats !scans) peak_rss
    (Bytes.length ref_bytes) ref_stats.sumcheck_mults ref_stats.spmv_mults
    ref_stats.transcript_hashes (String.concat "," layer_json)
    (String.concat "," (List.rev_map json_string !errors))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "prover_bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
    Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
      (String.concat ", " (List.map (fun w -> w.name) workloads));
    exit 2
  | Some wl -> run wl ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
