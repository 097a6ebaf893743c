(* Parallel-runtime benchmark: times serial vs. multi-domain runs of each
   converted prover kernel plus an end-to-end Spartan prove, cross-checks
   that every domain count produced identical results, and emits
   BENCH_parallel.json (validated against its own schema before exit).

   Schema v2 additions: a [dispatch] micro-row (latency of an empty-body
   parallel_for per domain count — the pure pool overhead), a [host_domains]
   field (what the OS reports), a measured [recommended_domains] (the domain
   count with the best geometric-mean speedup across kernels on THIS host),
   and per-kernel [grain] / [crossover_n] fields recording the adaptive
   chunk hint each kernel hands the pool.

   [run ~smoke:true] uses tiny sizes — it backs the @bench-smoke alias that
   tier-1 verify builds, so it must stay fast and loud on regressions. On
   top of the fingerprint cross-checks, smoke mode asserts that the empty
   dispatch stays under a pinned latency ceiling and that no kernel slows
   down more than 10% when routed through a 1-domain pool. *)

open Nocap_repro

let wall () = Unix.gettimeofday ()

(* Best-of-r wall time: robust to scheduler noise without needing a long
   quota like Bechamel's OLS. *)
let time_best ~reps f =
  (* Start each measurement from a settled heap so a major GC triggered by
     the previous configuration is not charged to this one. *)
  Gc.major ();
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = wall () in
    ignore (Sys.opaque_identity (f ()));
    let dt = wall () -. t0 in
    if dt < !best then best := dt
  done;
  !best

type kernel = {
  k_name : string;
  k_n : int; (* problem size, for the report *)
  k_grain : int; (* chunk hint the kernel's hot loop hands the pool; 0 = composite *)
  k_run : unit -> string; (* returns a result fingerprint for equality checks *)
}

let kernels ~smoke rng =
  let scale b s = if smoke then s else b in
  let merkle_n = scale 8192 256 in
  let leaves =
    Array.init merkle_n (fun i -> Keccak.sha3_256_string (string_of_int i))
  in
  let keccak_n = scale 2048 64 in
  let keccak_msgs = Array.init keccak_n (fun i -> Bytes.make 512 (Char.chr (i land 0xff))) in
  let enc_rows = scale 64 8 in
  let enc_cols = scale 1024 64 in
  let rows = Array.init enc_rows (fun _ -> Array.init enc_cols (fun _ -> Gf.random rng)) in
  let sc_n = scale (1 lsl 14) (1 lsl 8) in
  let sc_tables = Array.init 4 (fun _ -> Array.init sc_n (fun _ -> Gf.random rng)) in
  let sc_claim =
    let acc = ref Gf.zero in
    for b = 0 to sc_n - 1 do
      acc :=
        Gf.add !acc (Sumcheck.spartan_comb_scalar (Array.map (fun t -> t.(b)) sc_tables))
    done;
    !acc
  in
  (* 2^12 points: enough for ~26 ten-bit windows, so window-level
     parallelism is actually exposed (128 points kept the whole MSM under
     the serial crossover and benchmarked nothing). *)
  let msm_n = scale 4096 64 in
  let msm_scalars = Array.init msm_n (fun _ -> Fr_bls.random rng) in
  let msm_points = Array.init msm_n (fun _ -> G1.random rng) in
  let msm_c = Msm.window_for msm_n in
  let orion_n = scale (1 lsl 12) (1 lsl 8) in
  let orion_table = Array.init orion_n (fun _ -> Gf.random rng) in
  let orion_rows = scale 64 16 in
  let orion_params =
    { Orion.rows = orion_rows; code = (module Reed_solomon); proximity_count = 4; zk = true }
  in
  let e2e_constraints = scale 2000 200 in
  let e2e = lazy (Synthetic.circuit ~n_constraints:e2e_constraints ~seed:42L ()) in
  [
    {
      k_name = "merkle-build";
      k_n = merkle_n;
      (* hash2_pairs: one Keccak permutation per pair. *)
      k_grain = Pool.grain_of_ns (Keccak.block_ns ());
      k_run = (fun () -> Keccak.to_hex (Merkle.root (Merkle.build leaves)));
    };
    {
      k_name = "keccak-batch";
      k_n = keccak_n;
      k_grain = Keccak.batch_grain ~msg_bytes:512;
      k_run =
        (fun () ->
          let ds = Keccak.sha3_256_batch keccak_msgs in
          Keccak.to_hex ds.(Array.length ds - 1));
    };
    {
      k_name = "rs-encode-rows";
      k_n = enc_rows * enc_cols;
      k_grain = Pool.grain_of_ns (Reed_solomon.row_encode_ns ~cols:enc_cols);
      k_run =
        (fun () ->
          let e = Reed_solomon.encode_batch rows in
          Gf.to_string e.(enc_rows - 1).(0));
    };
    {
      k_name = "sumcheck-prove";
      k_n = sc_n;
      (* First-round evaluation grain (Sumcheck.round_poly's cost model):
         degree 3, comb_mults 2, 4 tables. *)
      k_grain = Pool.grain_of_ns (max 1 ((3 + 1) * (2 + 4) * 4));
      k_run =
        (fun () ->
          let t = Transcript.create "bench-parallel" in
          let r =
            Sumcheck.prove ~comb_mults:2 t ~degree:3 ~tables:sc_tables
              ~comb:Sumcheck.spartan_comb ~claim:sc_claim
          in
          Gf.to_string r.Sumcheck.challenges.(Array.length r.Sumcheck.challenges - 1));
    };
    {
      k_name = "msm-pippenger";
      k_n = msm_n;
      k_grain =
        Pool.grain_of_ns (max 1 ((msm_n + (2 * (1 lsl msm_c)) + msm_c) * 1_500));
      k_run = (fun () -> if G1.is_infinity (Msm.pippenger msm_scalars msm_points) then "inf" else "pt");
    };
    {
      k_name = "orion-commit";
      k_n = orion_n;
      k_grain = Pool.grain_of_ns (Reed_solomon.row_encode_ns ~cols:(orion_n / orion_rows));
      k_run =
        (fun () ->
          let _, cm = Orion.commit orion_params (Rng.create 1L) orion_table in
          Keccak.to_hex cm.Orion.root);
    };
    {
      k_name = "endtoend-prove";
      k_n = e2e_constraints;
      k_grain = 0;
      k_run =
        (fun () ->
          let inst, asn = Lazy.force e2e in
          let proof, _ = Spartan.prove Spartan.test_params inst asn in
          Keccak.to_hex proof.Spartan.w_commitment.Orion.root);
    };
  ]

type timing = { domains : int; seconds : float; speedup : float }

type row = { kernel : kernel; serial_seconds : float; timings : timing list }

type dispatch = { d_domains : int; d_seconds : float }

let domain_counts () =
  let n = Pool.default_domains () in
  List.sort_uniq compare (1 :: 2 :: 4 :: [ n ])

(* Empty-body parallel_for latency: the pool's pure dispatch cost (submit,
   wake, steal-to-empty, retire, wait). grain:1 over 64 indices forces the
   parallel path even at one domain. *)
let measure_dispatch ~smoke () =
  let iters = if smoke then 100 else 1000 in
  List.map
    (fun d ->
      Pool.with_domains d (fun () ->
          Pool.parallel_for ~grain:1 ~n:64 (fun _ -> ());
          let t0 = wall () in
          for _ = 1 to iters do
            Pool.parallel_for ~grain:1 ~n:64 (fun _ -> ())
          done;
          { d_domains = d; d_seconds = (wall () -. t0) /. float_of_int iters }))
    (domain_counts ())

let measure ~smoke kernel =
  let reps = if smoke then 3 else 5 in
  (* Warm-up run (also the cross-domain-count reference fingerprint) so the
     serial baseline is not charged for plan/page/GC warm-up. *)
  let reference = Pool.with_domains 1 kernel.k_run in
  let serial_seconds =
    Pool.with_domains 1 (fun () -> time_best ~reps kernel.k_run)
  in
  let timings =
    List.map
      (fun d ->
        Pool.with_domains d (fun () ->
            let fp = kernel.k_run () in
            if not (String.equal fp reference) then
              failwith
                (Printf.sprintf "bench parallel: %s diverged at %d domains" kernel.k_name d);
            let seconds = time_best ~reps kernel.k_run in
            { domains = d; seconds; speedup = serial_seconds /. seconds }))
      (domain_counts ())
  in
  { kernel; serial_seconds; timings }

(* Domain count with the best geometric-mean speedup across kernels — a
   measured recommendation for THIS host, not the OS core count. Ties go to
   the smaller count (fewer domains, same throughput). *)
let recommended_domains rows =
  let geomean d =
    let logs =
      List.filter_map
        (fun r ->
          List.find_opt (fun t -> t.domains = d) r.timings
          |> Option.map (fun t -> log (max 1e-9 t.speedup)))
        rows
    in
    match logs with
    | [] -> 0.0
    | _ -> exp (List.fold_left ( +. ) 0.0 logs /. float_of_int (List.length logs))
  in
  List.fold_left
    (fun (best_d, best_g) d ->
      let g = geomean d in
      if g > best_g +. 1e-9 then (d, g) else (best_d, best_g))
    (1, geomean 1)
    (domain_counts ())
  |> fst

(* --- JSON emission ------------------------------------------------------ *)

let schema_id = "nocap-bench-parallel/v2"

let json_of_rows ~dispatch rows =
  let buf = Buffer.create 4096 in
  let adds fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  adds "{\n";
  adds "  \"schema\": %S,\n" schema_id;
  adds "  \"host_domains\": %d,\n" (Domain.recommended_domain_count ());
  adds "  \"recommended_domains\": %d,\n" (recommended_domains rows);
  adds "  \"domains\": [%s],\n"
    (String.concat ", " (List.map string_of_int (domain_counts ())));
  adds "  \"dispatch\": [\n";
  List.iteri
    (fun i d ->
      adds "    {\"domains\": %d, \"seconds\": %.9f}%s\n" d.d_domains d.d_seconds
        (if i = List.length dispatch - 1 then "" else ","))
    dispatch;
  adds "  ],\n";
  adds "  \"kernels\": [\n";
  List.iteri
    (fun i r ->
      adds "    {\n";
      adds "      \"name\": %S,\n" r.kernel.k_name;
      adds "      \"n\": %d,\n" r.kernel.k_n;
      adds "      \"grain\": %d,\n" r.kernel.k_grain;
      adds "      \"crossover_n\": %d,\n" (2 * r.kernel.k_grain);
      adds "      \"serial_seconds\": %.9f,\n" r.serial_seconds;
      adds "      \"timings\": [\n";
      List.iteri
        (fun j t ->
          adds "        {\"domains\": %d, \"seconds\": %.9f, \"speedup\": %.4f}%s\n"
            t.domains t.seconds t.speedup
            (if j = List.length r.timings - 1 then "" else ","))
        r.timings;
      adds "      ]\n";
      adds "    }%s\n" (if i = List.length rows - 1 then "" else ","))
    rows;
  adds "  ]\n";
  adds "}\n";
  Buffer.contents buf

(* --- schema validation (shared parser in Json_min) ---------------------- *)

open Json_min

(* Required shape: schema id, host + recommended domain counts, one dispatch
   micro-row per domain count, and >= 4 kernels + the end-to-end prove,
   each with grain/crossover hints, serial time, and one timing per domain
   count. *)
let validate_schema (s : string) : (unit, string) result =
  try
    let j = parse_json s in
    if as_str (field j "schema") <> schema_id then raise (Bad_json "wrong schema id");
    if as_int (field j "host_domains") < 1 then raise (Bad_json "host_domains < 1");
    if as_int (field j "recommended_domains") < 1 then
      raise (Bad_json "recommended_domains < 1");
    let domains = List.map as_int (as_list (field j "domains")) in
    if domains = [] then raise (Bad_json "empty domains");
    let dispatch = as_list (field j "dispatch") in
    if List.length dispatch <> List.length domains then
      raise (Bad_json "one dispatch row per domain count required");
    List.iter
      (fun d ->
        ignore (as_int (field d "domains"));
        if not (as_num (field d "seconds") > 0.0) then
          raise (Bad_json "dispatch seconds must be positive"))
      dispatch;
    let kernels = as_list (field j "kernels") in
    if List.length kernels < 5 then raise (Bad_json "need >= 5 kernels");
    let names =
      List.map
        (fun k ->
          ignore (as_int (field k "n"));
          let grain = as_int (field k "grain") in
          if grain < 0 then raise (Bad_json "grain must be >= 0");
          if as_int (field k "crossover_n") <> 2 * grain then
            raise (Bad_json "crossover_n must equal 2 * grain");
          let serial = as_num (field k "serial_seconds") in
          if not (serial > 0.0) then raise (Bad_json "serial_seconds must be positive");
          let timings = as_list (field k "timings") in
          if List.length timings <> List.length domains then
            raise (Bad_json "one timing per domain count required");
          List.iter
            (fun t ->
              ignore (as_int (field t "domains"));
              let sec = as_num (field t "seconds") in
              if not (sec > 0.0) then raise (Bad_json "seconds must be positive");
              ignore (as_num (field t "speedup")))
            timings;
          as_str (field k "name"))
        kernels
    in
    if not (List.mem "endtoend-prove" names) then
      raise (Bad_json "endtoend-prove kernel missing");
    Ok ()
  with Bad_json msg -> Error msg

(* --- smoke assertions ---------------------------------------------------- *)

(* Pinned ceiling for one empty dispatch. A healthy pool needs ~1-30µs
   (spin-path handoff) even when domains are oversubscribed on one core;
   the pin leaves ~2 orders of magnitude of headroom so only real
   regressions (lost-wakeup stalls, accidental blocking waits on the hot
   path) trip it, not scheduler noise. *)
let dispatch_ceiling_seconds = 0.005

(* A 1-domain pool must run the same code the serial path runs (modulo
   dispatch); a kernel slowing down >10% there means the runtime is taxing
   single-core users. *)
let one_domain_floor = 0.9

let assert_smoke ~dispatch rows =
  (* Both pins compare timings of concurrently-scheduled configurations, so
     they are only meaningful when the host can actually run a second
     domain: on a 1-core box every multi-domain configuration timeshares
     one CPU, and a loaded machine makes both measurements pure noise.
     Skip (loudly, with the reason) rather than fail there. *)
  if Domain.recommended_domain_count () <= 1 then
    Printf.printf
      "bench-smoke SKIP: host_domains=1 — dispatch ceiling and 1-domain speedup pins need a \
       multi-core host (timings on a timeshared core are noise, not regressions)\n\
       %!"
  else begin
    let failures = ref [] in
    let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
    List.iter
      (fun d ->
        if d.d_seconds > dispatch_ceiling_seconds then
          fail "dispatch at %d domains took %.6fs > pinned ceiling %.6fs" d.d_domains
            d.d_seconds dispatch_ceiling_seconds)
      dispatch;
    List.iter
      (fun r ->
        match List.find_opt (fun t -> t.domains = 1) r.timings with
        | Some t when t.speedup < one_domain_floor ->
          fail "%s: 1-domain speedup %.2fx < %.2fx floor" r.kernel.k_name t.speedup
            one_domain_floor
        | _ -> ())
      rows;
    match !failures with
    | [] -> ()
    | fs ->
      List.iter (fun m -> Printf.eprintf "bench-smoke FAIL: %s\n" m) (List.rev fs);
      Printf.eprintf "%!";
      exit 1
  end

(* --- driver ------------------------------------------------------------- *)

let run ?(smoke = false) ?(path = "BENCH_parallel.json") () =
  Zk_report.Render.section
    (Printf.sprintf "Parallel runtime: serial vs. multi-domain%s"
       (if smoke then " (smoke)" else ""));
  let rng = Rng.create 0xD0_5EEDL in
  let dispatch = measure_dispatch ~smoke () in
  let rows = List.map (measure ~smoke) (kernels ~smoke rng) in
  Zk_report.Render.table
    ~header:("kernel" :: "n" :: "grain" :: "serial"
            :: List.map (fun d -> Printf.sprintf "%dd speedup" d) (domain_counts ()))
    (List.map
       (fun r ->
         r.kernel.k_name :: string_of_int r.kernel.k_n
         :: string_of_int r.kernel.k_grain
         :: Zk_report.Render.seconds r.serial_seconds
         :: List.map (fun t -> Printf.sprintf "%.2fx" t.speedup) r.timings)
       rows);
  Printf.printf "dispatch: %s\n"
    (String.concat "  "
       (List.map
          (fun d -> Printf.sprintf "%dd=%.1fus" d.d_domains (d.d_seconds *. 1e6))
          dispatch));
  Printf.printf "host_domains=%d recommended_domains=%d\n"
    (Domain.recommended_domain_count ())
    (recommended_domains rows);
  let json = json_of_rows ~dispatch rows in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  (match validate_schema json with
  | Ok () -> Printf.printf "wrote %s (schema %s, valid)\n%!" path schema_id
  | Error msg ->
    Printf.eprintf "BENCH_parallel.json failed schema validation: %s\n%!" msg;
    exit 1);
  if smoke then assert_smoke ~dispatch rows;
  rows
