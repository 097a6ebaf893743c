(* Boxed vs. unboxed memory benchmark: times each converted prover kernel in
   its [Gf.t array] (boxed Int64) and [Fv.t] (flat Bigarray) forms, records
   per-kernel GC statistics (minor/major allocated words, promotions,
   collection counts) for both, cross-checks that the two forms produce the
   same result, and writes BENCH_memory.json through [Bench_report.write]
   with its gates.

   Everything runs single-domain ([Pool.with_domains 1]): the point is the
   allocation behaviour of one domain's hot loop, not parallel scaling —
   BENCH_parallel.json covers that axis.

   NOTE the numbers depend on the build profile: the dev profile passes
   [-opaque], which blocks cross-module inlining, so the Gf primitives stay
   out-of-line and even the Fv loops box their intermediates. Run this under
   [dune exec --profile release] for the intended zero-allocation behaviour
   (see README "Compiler flags"). The report includes a probe so the profile
   is visible in the JSON. *)

open Nocap_repro
module Gf_fv = Ntt.Gf_fv

type gc_sample = {
  seconds : float;
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

(* Best-of-r wall time plus GC deltas over a single run from a settled
   heap, so collections triggered by the previous variant are not charged
   to this one. *)
let measure ~reps f =
  let seconds = Bench_report.time_best ~reps f in
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  (* [Gc.minor_words] reads the live allocation pointer; quick_stat's
     minor_words field is only refreshed at collection boundaries, which
     would report 0 for any kernel that fits in the minor heap. *)
  let m0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  let m1 = Gc.minor_words () in
  let s1 = Gc.quick_stat () in
  {
    seconds;
    minor_words = m1 -. m0;
    major_words = s1.Gc.major_words -. s0.Gc.major_words;
    promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
    minor_collections = s1.Gc.minor_collections - s0.Gc.minor_collections;
    major_collections = s1.Gc.major_collections - s0.Gc.major_collections;
  }

(* How many words per element a settled Fv loop allocates right now: ~0
   under the release profile (inlined Gf ops), ~10+ under dev ([-opaque]).
   Recorded in the JSON so a dev-profile report is recognizable. *)
let fv_probe_words_per_elem () =
  let n = 4096 in
  let v = Fv.create n in
  Fv.fill v Gf.one;
  let dst = Fv.create n in
  ignore (Sys.opaque_identity (Fv.mul_into ~dst v v));
  let s0 = Gc.quick_stat () in
  ignore (Sys.opaque_identity (Fv.mul_into ~dst v v));
  let s1 = Gc.quick_stat () in
  (s1.Gc.minor_words -. s0.Gc.minor_words) /. float_of_int n

type kernel = {
  k_name : string;
  k_n : int; (* elements processed, for the per-element normalization *)
  k_boxed : unit -> string; (* each returns a result fingerprint *)
  k_unboxed : unit -> string;
}

let kernels ~smoke rng =
  let scale b s = if smoke then s else b in
  (* NTT: one full-size in-place transform per run, same preallocated
     buffer refilled from the same input. *)
  let ntt_n = scale (1 lsl 18) (1 lsl 10) in
  let ntt_input = Array.init ntt_n (fun _ -> Gf.random rng) in
  let ntt_input_fv = Fv.of_array ntt_input in
  let ntt_buf = Array.make ntt_n Gf.zero in
  let ntt_buf_fv = Fv.create ntt_n in
  let ntt_plan = Ntt.Gf_ntt.plan ntt_n in
  let ntt_plan_fv = Gf_fv.plan ntt_n in
  (* Merkle build: leaves from a [mk_rows x mk_len] codeword matrix, boxed
     as gathered columns into the string-digest oracle tree vs. read strided
     out of the flat buffer into the flat tree. *)
  let mk_rows = scale 128 16 in
  let mk_len = scale 2048 64 in
  let mk_flat = Fv.create (mk_rows * mk_len) in
  for i = 0 to (mk_rows * mk_len) - 1 do
    Fv.set mk_flat i (Gf.random rng)
  done;
  let mk_cols =
    Array.init mk_len (fun j ->
        Array.init mk_rows (fun r -> Fv.get mk_flat ((r * mk_len) + j)))
  in
  (* RS encode: every row of a message matrix, through the boxed oracle
     vs. the row encoder into one preallocated flat codeword matrix. *)
  let rs_rows = scale 256 8 in
  let rs_cols = scale 1024 64 in
  let rs_len = Reed_solomon.blowup * rs_cols in
  let rs_msgs = Array.init rs_rows (fun _ -> Array.init rs_cols (fun _ -> Gf.random rng)) in
  let rs_flat = Fv.create (rs_rows * rs_cols) in
  Array.iteri (fun r row -> Fv.write_array row ~src_pos:0 rs_flat ~dst_pos:(r * rs_cols) ~len:rs_cols) rs_msgs;
  let rs_out = Fv.create (rs_rows * rs_len) in
  (* Sumcheck fold: the round-folding recurrence
     T(b) <- T(b) + r*(T(b+half) - T(b)) run to a single element, with a
     fixed deterministic challenge per round. *)
  let sf_n = scale (1 lsl 18) (1 lsl 10) in
  let sf_table = Array.init sf_n (fun _ -> Gf.random rng) in
  let sf_table_fv = Fv.of_array sf_table in
  let sf_buf = Array.make sf_n Gf.zero in
  let sf_buf_fv = Fv.create sf_n in
  let sf_challenges =
    let r = Rng.create 0xF01DL in
    Array.init 64 (fun _ -> Gf.random r)
  in
  (* Full sumcheck prover: boxed reference vs. unboxed production path. *)
  let sc_n = scale (1 lsl 14) (1 lsl 8) in
  let sc_tables = Array.init 4 (fun _ -> Array.init sc_n (fun _ -> Gf.random rng)) in
  let sc_claim =
    let acc = ref Gf.zero in
    for b = 0 to sc_n - 1 do
      acc :=
        Gf.add !acc (Sumcheck_oracle.spartan_comb_scalar (Array.map (fun t -> t.(b)) sc_tables))
    done;
    !acc
  in
  (* Orion commit (zk off so both sides are deterministic): production
     flat commit vs. the same pipeline assembled from the boxed oracles
     (reference encoder, string-digest tree). *)
  let orion_n = scale (1 lsl 16) (1 lsl 8) in
  let orion_table = Array.init orion_n (fun _ -> Gf.random rng) in
  let orion_params =
    { Orion.rows = scale 128 16; code = (module Reed_solomon); proximity_count = 4; zk = false }
  in
  let orion_rows = min orion_params.Orion.rows orion_n in
  let orion_cols = orion_n / orion_rows in
  [
    {
      k_name = "ntt";
      k_n = ntt_n;
      k_boxed =
        (fun () ->
          Array.blit ntt_input 0 ntt_buf 0 ntt_n;
          Ntt.Gf_ntt.forward ntt_plan ntt_buf;
          Gf.to_string ntt_buf.(1));
      k_unboxed =
        (fun () ->
          Fv.blit ~src:ntt_input_fv ~src_pos:0 ~dst:ntt_buf_fv ~dst_pos:0 ~len:ntt_n;
          Gf_fv.forward ntt_plan_fv ntt_buf_fv;
          Gf.to_string (Fv.get ntt_buf_fv 1));
    };
    {
      k_name = "merkle-build";
      k_n = mk_rows * mk_len;
      k_boxed =
        (fun () ->
          Keccak.to_hex
            (Merkle_oracle.root
               (Merkle_oracle.build (Array.map Merkle_oracle.leaf_of_column mk_cols))));
      k_unboxed =
        (fun () ->
          Keccak.to_hex
            (Merkle.root (Merkle.build (Merkle.leaves_of_matrix ~rows:mk_rows ~cols:mk_len mk_flat))));
    };
    {
      k_name = "rs-encode";
      k_n = rs_rows * rs_cols;
      k_boxed =
        (fun () ->
          let e = Array.map Ecc_oracle.rs_encode rs_msgs in
          Gf.to_string e.(rs_rows - 1).(1));
      k_unboxed =
        (fun () ->
          for r = 0 to rs_rows - 1 do
            Reed_solomon.encode_row_into
              ~src:(Fv.sub_view rs_flat ~pos:(r * rs_cols) ~len:rs_cols)
              ~dst:(Fv.sub_view rs_out ~pos:(r * rs_len) ~len:rs_len)
          done;
          Gf.to_string (Fv.get rs_out (((rs_rows - 1) * rs_len) + 1)));
    };
    {
      k_name = "sumcheck-fold";
      k_n = sf_n;
      k_boxed =
        (fun () ->
          Array.blit sf_table 0 sf_buf 0 sf_n;
          let len = ref sf_n and round = ref 0 in
          while !len > 1 do
            let half = !len / 2 in
            let r = sf_challenges.(!round) in
            for b = 0 to half - 1 do
              sf_buf.(b) <- Gf.add sf_buf.(b) (Gf.mul r (Gf.sub sf_buf.(b + half) sf_buf.(b)))
            done;
            len := half;
            incr round
          done;
          Gf.to_string sf_buf.(0));
      k_unboxed =
        (fun () ->
          Fv.blit ~src:sf_table_fv ~src_pos:0 ~dst:sf_buf_fv ~dst_pos:0 ~len:sf_n;
          let len = ref sf_n and round = ref 0 in
          while !len > 1 do
            let half = !len / 2 in
            let r = sf_challenges.(!round) in
            for b = 0 to half - 1 do
              let x = Fv.unsafe_get sf_buf_fv b in
              Fv.unsafe_set sf_buf_fv b
                (Gf.add x (Gf.mul r (Gf.sub (Fv.unsafe_get sf_buf_fv (b + half)) x)))
            done;
            len := half;
            incr round
          done;
          Gf.to_string (Fv.get sf_buf_fv 0));
    };
    {
      k_name = "sumcheck-prove";
      k_n = sc_n;
      k_boxed =
        (fun () ->
          let t = Transcript.create "bench-memory" in
          let r =
            Sumcheck_oracle.prove_arrays ~comb_mults:2 t ~degree:3 ~tables:sc_tables
              ~comb:Sumcheck_oracle.spartan_comb_scalar ~claim:sc_claim
          in
          Gf.to_string r.Sumcheck.challenges.(Array.length r.Sumcheck.challenges - 1));
      k_unboxed =
        (fun () ->
          let t = Transcript.create "bench-memory" in
          let r =
            Sumcheck.prove t ~tables:(Sumcheck_oracle.spills sc_tables) ~comb:Sumcheck.Eq_abc
          in
          Gf.to_string r.Sumcheck.challenges.(Array.length r.Sumcheck.challenges - 1));
    };
    {
      k_name = "orion-commit";
      k_n = orion_n;
      k_boxed =
        (fun () ->
          let matrix = Array.init orion_rows (fun r -> Array.sub orion_table (r * orion_cols) orion_cols) in
          let encoded = Array.map Ecc_oracle.rs_encode matrix in
          let code_len = Reed_solomon.blowup * orion_cols in
          let cols =
            Array.init code_len (fun j -> Array.map (fun row -> row.(j)) encoded)
          in
          Keccak.to_hex
            (Merkle_oracle.root
               (Merkle_oracle.build (Array.map Merkle_oracle.leaf_of_column cols))));
      k_unboxed =
        (fun () ->
          let _, cm = Orion.commit orion_params (Rng.create 1L) orion_table in
          Keccak.to_hex cm.Orion.root);
    };
  ]

type row = { kernel : kernel; boxed : gc_sample; unboxed : gc_sample; fingerprint_equal : bool }

let measure_kernel ~smoke k =
  let reps = if smoke then 2 else 5 in
  (* Warm-up both variants (plans, page faults) and take the
     equality fingerprints. *)
  let fp_boxed = k.k_boxed () in
  let fp_unboxed = k.k_unboxed () in
  let boxed = measure ~reps k.k_boxed in
  let unboxed = measure ~reps k.k_unboxed in
  { kernel = k; boxed; unboxed; fingerprint_equal = String.equal fp_boxed fp_unboxed }

let speedup r = r.boxed.seconds /. r.unboxed.seconds

(* Total allocation (minor + directly-major) per variant; the reduction
   ratio floors both sides at one word to stay finite and positive when a
   variant allocates exactly nothing in the optimized build. *)
let allocated s = s.minor_words +. s.major_words -. s.promoted_words
let alloc_reduction r =
  Float.max 1.0 (allocated r.boxed) /. Float.max 1.0 (allocated r.unboxed)

(* --- report --------------------------------------------------------------- *)

let schema_id = "nocap-bench-memory/v1"

let document ~probe ~peak_rss_kb ~rss_source rows =
  let open Bench_report in
  let open Json_min in
  let control = Gc.get () in
  let sample (s : gc_sample) n =
    Obj
      [
        ("seconds", Num s.seconds);
        ("minor_words", Num s.minor_words);
        ("major_words", Num s.major_words);
        ("promoted_words", Num s.promoted_words);
        ("minor_collections", int s.minor_collections);
        ("major_collections", int s.major_collections);
        ("words_per_elem", Num (allocated s /. float_of_int n));
      ]
  in
  [
    ("domains", int 1);
    ("peak_rss_kb", int peak_rss_kb);
    ("rss_source", Str rss_source);
    ("fv_probe_words_per_elem", Num probe);
    ( "gc",
      Obj
        [
          ("minor_heap_words", int control.Gc.minor_heap_size);
          ("space_overhead", int control.Gc.space_overhead);
        ] );
    ( "kernels",
      objs
        (fun r ->
          [
            ("name", Str r.kernel.k_name);
            ("n", int r.kernel.k_n);
            ("fingerprint_equal", Bool r.fingerprint_equal);
            ("boxed", sample r.boxed r.kernel.k_n);
            ("unboxed", sample r.unboxed r.kernel.k_n);
            ("speedup", Num (speedup r));
            ("alloc_reduction", Num (alloc_reduction r));
          ])
        rows );
  ]

(* >= 6 kernels (the six required by name), each with matching boxed and
   unboxed fingerprints, positive times and positive derived ratios; a live
   RSS probe must report a positive high-water mark ((0, "none") is the
   probe's explicit both-probes-failed marker). *)
let gates ~peak_rss_kb ~rss_source rows =
  let for_all p = List.for_all p rows in
  [
    (rss_source <> "", "rss_source must be non-empty");
    (rss_source = "none" || peak_rss_kb > 0, "peak_rss_kb must be positive");
    ((Gc.get ()).Gc.minor_heap_size > 0, "minor_heap_words must be positive");
    (List.length rows >= 6, "need >= 6 kernels");
    ( for_all (fun r -> r.boxed.seconds > 0.0 && r.unboxed.seconds > 0.0),
      "seconds must be positive" );
    (for_all (fun r -> speedup r > 0.0), "speedup must be positive");
    (for_all (fun r -> alloc_reduction r > 0.0), "alloc_reduction must be positive");
  ]
  @ List.map
      (fun r -> (r.fingerprint_equal, r.kernel.k_name ^ ": boxed/unboxed fingerprints diverged"))
      rows
  @ Bench_report.require ~what:"kernel"
      (List.map (fun r -> r.kernel.k_name) rows)
      [ "ntt"; "merkle-build"; "rs-encode"; "sumcheck-fold"; "sumcheck-prove"; "orion-commit" ]

(* --- driver ------------------------------------------------------------- *)

let run ~smoke ~path =
  Bench_report.section "Memory: boxed Gf.t array vs unboxed Fv (single domain)" ~smoke;
  let rng = Rng.create 0x4D454DL in
  let probe, rows =
    Pool.with_domains 1 (fun () ->
        let probe = fv_probe_words_per_elem () in
        (probe, List.map (measure_kernel ~smoke) (kernels ~smoke rng)))
  in
  Zk_report.Render.table
    ~header:
      [ "kernel"; "n"; "boxed"; "unboxed"; "speedup"; "boxed w/elem"; "fv w/elem"; "alloc x" ]
    (List.map
       (fun r ->
         [
           r.kernel.k_name;
           string_of_int r.kernel.k_n;
           Zk_report.Render.seconds r.boxed.seconds;
           Zk_report.Render.seconds r.unboxed.seconds;
           Printf.sprintf "%.2fx" (speedup r);
           Printf.sprintf "%.2f" (allocated r.boxed /. float_of_int r.kernel.k_n);
           Printf.sprintf "%.4f" (allocated r.unboxed /. float_of_int r.kernel.k_n);
           Printf.sprintf "%.0fx" (alloc_reduction r);
         ])
       rows);
  let peak_rss_kb, rss_source = Rss.peak_rss_kb () in
  Printf.printf "peak RSS: %d KiB (probe: %s)\n%!" peak_rss_kb rss_source;
  Bench_report.write ~path ~schema:schema_id
    ~gates:(gates ~peak_rss_kb ~rss_source rows)
    (document ~probe ~peak_rss_kb ~rss_source rows)
