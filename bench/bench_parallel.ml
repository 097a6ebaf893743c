(* Parallel-runtime benchmark: times serial vs. multi-domain runs of each
   converted prover kernel plus an end-to-end Spartan prove, cross-checks
   that every domain count produced identical results, and writes
   BENCH_parallel.json through [Bench_report.write] with its gates.

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
    Merkle.of_digests
      (Array.init merkle_n (fun i -> Keccak.sha3_256_string (string_of_int i)))
  in
  let enc_rows = scale 64 8 in
  let enc_cols = scale 1024 64 in
  let enc_len = Reed_solomon.blowup * enc_cols in
  let enc_src = Fv.create (enc_rows * enc_cols) in
  for i = 0 to (enc_rows * enc_cols) - 1 do
    Fv.set enc_src i (Gf.random rng)
  done;
  let enc_dst = Fv.create (enc_rows * enc_len) in
  let enc_grain = Pool.grain_of_ns (Reed_solomon.row_encode_ns ~cols:enc_cols) in
  let sc_n = scale (1 lsl 14) (1 lsl 8) in
  let sc_tables = Array.init 4 (fun _ -> Array.init sc_n (fun _ -> Gf.random rng)) in
  (* 2^12 points: enough for ~26 ten-bit windows, so window-level
     parallelism is actually exposed (128 points kept the whole MSM under
     the serial crossover and benchmarked nothing). *)
  let msm_n = scale 4096 64 in
  let msm_scalars = Array.init msm_n (fun _ -> Fr_bls.random rng) in
  let msm_points = Array.init msm_n (fun _ -> G1.random rng) in
  let msm_c = Msm.window_for msm_n in
  let orion_n = scale (1 lsl 12) (1 lsl 8) in
  let orion_table = Fv.of_array (Array.init orion_n (fun _ -> Gf.random rng)) in
  let orion_rows = scale 64 16 in
  let orion_params =
    { Orion.rows = orion_rows; code = (module Reed_solomon); proximity_count = 4; zk = true }
  in
  (* Spartan's M~ gather over a synthetic instance, in RAM (one window). *)
  let mfill_constraints = scale (1 lsl 16) (1 lsl 10) in
  let mfill =
    lazy
      (let inst, _ = Synthetic.circuit ~n_constraints:mfill_constraints ~seed:43L () in
       let rx = Array.init inst.R1cs.log_size (fun _ -> Gf.random rng) in
       (inst, rx, Array.init 3 (fun _ -> Gf.random rng)))
  in
  let e2e_constraints = scale 2000 200 in
  let e2e = lazy (Synthetic.circuit ~n_constraints:e2e_constraints ~seed:42L ()) in
  [
    {
      k_name = "merkle-build";
      k_n = merkle_n;
      (* Flat levels: one permutation per node, four nodes per x4 call. *)
      k_grain = Keccak.node_grain ();
      k_run = (fun () -> Keccak.to_hex (Merkle.root (Merkle.build leaves)));
    };
    {
      (* Rows split across the pool, each through the row encoder, as
         Orion's commit runs them. *)
      k_name = "rs-encode-rows";
      k_n = enc_rows * enc_cols;
      k_grain = enc_grain;
      k_run =
        (fun () ->
          Pool.run ~grain:enc_grain ~n:enc_rows (fun lo hi ->
              for r = lo to hi - 1 do
                Reed_solomon.encode_row_into
                  ~src:(Fv.sub_view enc_src ~pos:(r * enc_cols) ~len:enc_cols)
                  ~dst:(Fv.sub_view enc_dst ~pos:(r * enc_len) ~len:enc_len)
              done);
          Gf.to_string (Fv.get enc_dst ((enc_rows - 1) * enc_len)));
    };
    {
      k_name = "sumcheck-prove";
      k_n = sc_n;
      (* The round pass's grain for Eq_abc (Sumcheck's per-pair cost). *)
      k_grain = Pool.grain_of_ns 48;
      k_run =
        (fun () ->
          let t = Transcript.create "bench-parallel" in
          let r =
            Sumcheck.prove t ~tables:(Sumcheck_oracle.spills sc_tables) ~comb:Sumcheck.Eq_abc
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
      k_name = "m-fill";
      k_n = mfill_constraints;
      k_grain =
        (let inst, _, _ = Lazy.force mfill in
         Spartan.fill_m_grain inst);
      k_run =
        (fun () ->
          let inst, rx, r_abc = Lazy.force mfill in
          let m = Spartan.fill_m ~budget:None inst ~rx ~r_abc in
          Gf.to_string (Fv.sum (Spill.as_fv m)));
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
   wake, claim past the end, retire, wait). grain:1 over 64 indices forces the
   parallel path even at one domain. The row is the median of 5 batches'
   mean latencies, so one batch under host load does not set it. *)
let measure_dispatch ~smoke () =
  let iters = if smoke then 100 else 1000 in
  List.map
    (fun d ->
      Pool.with_domains d (fun () ->
          Pool.parallel_for ~grain:1 ~n:64 (fun _ -> ());
          let batch () =
            let t0 = wall () in
            for _ = 1 to iters do
              Pool.parallel_for ~grain:1 ~n:64 (fun _ -> ())
            done;
            (wall () -. t0) /. float_of_int iters
          in
          let batches = List.sort Float.compare (List.init 5 (fun _ -> batch ())) in
          { d_domains = d; d_seconds = List.nth batches 2 }))
    (domain_counts ())

let measure ~smoke kernel =
  let reps = if smoke then 3 else 5 in
  (* Warm-up run (also the cross-domain-count reference fingerprint) so the
     serial baseline is not charged for plan/page/GC warm-up. *)
  let reference = Pool.with_domains 1 kernel.k_run in
  (* One sample times a batch of [iters] runs spanning >= 2 ms, so a
     microsecond kernel is not timed at the granularity of the clock and
     the scheduler; the report keeps seconds per run. *)
  let iters =
    let t0 = wall () in
    ignore (Pool.with_domains 1 kernel.k_run);
    max 1 (int_of_float (2e-3 /. Float.max 1e-7 (wall () -. t0)))
  in
  let sample ~reps =
    Bench_report.time_best ~reps (fun () ->
        for _ = 1 to iters do
          ignore (Sys.opaque_identity (kernel.k_run ()))
        done)
    /. float_of_int iters
  in
  (* The serial baseline and the 1-domain timing are the same configuration,
     so their runs alternate one by one (swapping order each time) inside
     every sample: host drift hits both alike instead of landing between
     two separate batches. Each keeps its best of 2*reps samples. Every
     sample starts from a settled heap plus one untimed run, so neither
     side is charged the first run after a full GC; a kernel long enough to
     fill a sample alone settles the heap before each run. *)
  let serial_seconds, one_domain_seconds =
    Pool.with_domains 1 (fun () ->
        let timed () =
          if iters = 1 then Gc.full_major ();
          let t0 = wall () in
          ignore (Sys.opaque_identity (kernel.k_run ()));
          wall () -. t0
        in
        let best_s = ref infinity and best_o = ref infinity in
        for rep = 1 to 2 * reps do
          Gc.full_major ();
          ignore (timed ());
          let s = ref 0.0 and o = ref 0.0 in
          for i = 1 to iters do
            if (rep + i) land 1 = 0 then begin
              s := !s +. timed ();
              o := !o +. timed ()
            end
            else begin
              o := !o +. timed ();
              s := !s +. timed ()
            end
          done;
          best_s := Float.min !best_s (!s /. float_of_int iters);
          best_o := Float.min !best_o (!o /. float_of_int iters)
        done;
        (!best_s, !best_o))
  in
  let timings =
    List.map
      (fun d ->
        Pool.with_domains d (fun () ->
            let fp = kernel.k_run () in
            if not (String.equal fp reference) then
              failwith
                (Printf.sprintf "bench parallel: %s diverged at %d domains" kernel.k_name d);
            let seconds = if d = 1 then one_domain_seconds else sample ~reps in
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

(* --- report --------------------------------------------------------------- *)

let schema_id = "nocap-bench-parallel/v2"

let document ~dispatch rows =
  let open Bench_report in
  let open Json_min in
  [
    ("host_domains", int (Domain.recommended_domain_count ()));
    ("recommended_domains", int (recommended_domains rows));
    ("domains", List (List.map int (domain_counts ())));
    ( "dispatch",
      objs (fun d -> [ ("domains", int d.d_domains); ("seconds", Num d.d_seconds) ]) dispatch );
    ( "kernels",
      objs
        (fun r ->
          [
            ("name", Str r.kernel.k_name);
            ("n", int r.kernel.k_n);
            ("grain", int r.kernel.k_grain);
            ("crossover_n", int (2 * r.kernel.k_grain));
            ("serial_seconds", Num r.serial_seconds);
            ( "timings",
              objs
                (fun t ->
                  [ ("domains", int t.domains); ("seconds", Num t.seconds); ("speedup", Num t.speedup) ])
                r.timings );
          ])
        rows );
  ]

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

(* Both smoke pins compare timings of concurrently-scheduled configurations,
   so they are only meaningful when the host can actually run a second
   domain: on a 1-core box every multi-domain configuration timeshares one
   CPU, and a loaded machine makes both measurements pure noise. They are
   skipped there (loudly, with the reason) rather than failed. *)
let smoke_gates ~dispatch rows =
  if Domain.recommended_domain_count () <= 1 then begin
    Printf.printf
      "bench-smoke SKIP: host_domains=1 — dispatch ceiling and 1-domain speedup pins need a \
       multi-core host (timings on a timeshared core are noise, not regressions)\n\
       %!";
    []
  end
  else
    List.map
      (fun d ->
        ( d.d_seconds <= dispatch_ceiling_seconds,
          Printf.sprintf "dispatch at %d domains took %.6fs > pinned ceiling %.6fs" d.d_domains
            d.d_seconds dispatch_ceiling_seconds ))
      dispatch
    @ List.concat_map
        (fun r ->
          List.filter_map
            (fun t ->
              if t.domains <> 1 then None
              else
                Some
                  ( t.speedup >= one_domain_floor,
                    Printf.sprintf "%s: 1-domain speedup %.2fx < %.2fx floor" r.kernel.k_name
                      t.speedup one_domain_floor ))
            r.timings)
        rows

let gates ~smoke ~dispatch rows =
  let n_domains = List.length (domain_counts ()) in
  let for_all p = List.for_all p rows in
  [
    (Domain.recommended_domain_count () >= 1, "host_domains < 1");
    (recommended_domains rows >= 1, "recommended_domains < 1");
    (n_domains > 0, "empty domains");
    (List.length dispatch = n_domains, "one dispatch row per domain count required");
    (List.for_all (fun d -> d.d_seconds > 0.0) dispatch, "dispatch seconds must be positive");
    (List.length rows >= 5, "need >= 5 kernels");
    (for_all (fun r -> r.kernel.k_grain >= 0), "grain must be >= 0");
    (for_all (fun r -> r.serial_seconds > 0.0), "serial_seconds must be positive");
    (for_all (fun r -> List.length r.timings = n_domains), "one timing per domain count required");
    ( for_all (fun r -> List.for_all (fun t -> t.seconds > 0.0) r.timings),
      "seconds must be positive" );
  ]
  @ Bench_report.require ~what:"kernel"
      (List.map (fun r -> r.kernel.k_name) rows)
      [ "m-fill"; "endtoend-prove" ]
  @ if smoke then smoke_gates ~dispatch rows else []

(* --- driver ------------------------------------------------------------- *)

let run ~smoke ~path =
  Bench_report.section "Parallel runtime: serial vs. multi-domain" ~smoke;
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
  Bench_report.write ~path ~schema:schema_id ~gates:(gates ~smoke ~dispatch rows)
    (document ~dispatch rows)
