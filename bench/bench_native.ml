(* Native kernel layer benchmark: times each C-stub-backed kernel three
   ways — its OCaml reference from test/oracle (the "ocaml" column),
   portable scalar C ([Native.with_scalar_c]), and the best SIMD tier the
   CPU has — cross-checks that all three produce identical results, and
   writes BENCH_native.json through [Bench_report.write] with its gates.
   The flat Merkle rows also time the AVX2 tier alone
   ([Native.with_avx2_only]), so on an AVX-512F host the report shows what
   the 8-lane Keccak adds over the 4-lane one.

   The references are the boxed or serial OCaml forms the test suite
   checks the kernels against. The field, NTT, RS, eq-table, sumcheck,
   CSR, permutation and column-hash references are pure OCaml; the Merkle
   and transcript references (the string-digest tree, the one-at-a-time
   transcript) hash through the whole-message C sponge, so their ratios
   measure the batched kernels' layout, not C against OCaml.

   Everything runs single-domain ([Pool.with_domains 1]): the point is the
   per-kernel instruction stream, not parallel scaling — BENCH_parallel.json
   covers that axis.

   The legs are timed over the same preallocated inputs, so the ratios
   isolate the kernel swap itself. On a machine without AVX2/NEON the SIMD
   rows degrade to the scalar C bodies and speedup_simd ~= speedup_scalar;
   the "features" field in the JSON records which case a given report is. *)

open Nocap_repro
module Gf_fv = Ntt.Gf_fv

type kernel = {
  k_name : string;
  k_n : int;
      (* elements processed per run (states permuted for keccak-f1600,
         leaves for merkle-build, nonzeros for csr-eval, node hashes for
         merkle-check-paths, challenges or indices for the transcript
         rows) *)
  k_run : unit -> string; (* runs under the ambient leg; returns fingerprint *)
  k_oracle : unit -> string; (* the test/oracle reference; same fingerprint *)
  k_x4 : bool; (* also timed under [Native.with_avx2_only] *)
}

let kernels ~smoke rng =
  let scale b s = if smoke then s else b in
  (* Elementwise Goldilocks: one mul_into pass over a large vector. *)
  let ew_n = scale (1 lsl 20) (1 lsl 12) in
  let ew_a = Fv.create ew_n and ew_b = Fv.create ew_n in
  for i = 0 to ew_n - 1 do
    Fv.set ew_a i (Gf.random rng);
    Fv.set ew_b i (Gf.random rng)
  done;
  let ew_dst = Fv.create ew_n in
  (* Forward NTT of every row of a flat matrix, one row view at a time:
     the codeword-matrix shape Orion commits. *)
  let ntt_rows = scale 64 4 in
  let ntt_cols = scale (1 lsl 12) (1 lsl 8) in
  let ntt_input = Fv.create (ntt_rows * ntt_cols) in
  for i = 0 to (ntt_rows * ntt_cols) - 1 do
    Fv.set ntt_input i (Gf.random rng)
  done;
  let ntt_buf = Fv.create (ntt_rows * ntt_cols) in
  let ntt_plan = Gf_fv.plan ntt_cols in
  let row_arrays flat ~rows ~cols =
    Array.init rows (fun r -> Fv.to_array (Fv.sub_view flat ~pos:(r * cols) ~len:cols))
  in
  let ntt_boxed = row_arrays ntt_input ~rows:ntt_rows ~cols:ntt_cols in
  (* Fused RS row encode over a message matrix, into one preallocated
     codeword matrix. *)
  let rs_rows = scale 128 4 in
  let rs_cols = scale 1024 64 in
  let rs_len = Reed_solomon.blowup * rs_cols in
  let rs_flat = Fv.create (rs_rows * rs_cols) in
  for i = 0 to (rs_rows * rs_cols) - 1 do
    Fv.set rs_flat i (Gf.random rng)
  done;
  let rs_out = Fv.create (rs_rows * rs_len) in
  let rs_boxed = row_arrays rs_flat ~rows:rs_rows ~cols:rs_cols in
  (* Column sponges over a flat codeword matrix (Merkle leaf hashing). *)
  let ch_rows = scale 2048 64 in
  let ch_cols = scale 256 16 in
  let ch_flat = Fv.create (ch_rows * ch_cols) in
  for i = 0 to (ch_rows * ch_cols) - 1 do
    Fv.set ch_flat i (Gf.random rng)
  done;
  (* One Keccak-f[1600] permutation of each of [kf_n] independent states
     (17 random lanes, the rest zero: [Native.sha3_blocks]), so each tier
     permutes as many states at once as it has lanes (8 under AVX-512F, 4
     under AVX2, 1 in scalar C): the kernel under every sponge entry
     point. The fingerprint folds every state's first four lanes. *)
  let kf_n = scale 100_000 1_000 in
  let kf_blocks = Fv.create (Keccak.rate_lanes * kf_n) in
  for i = 0 to Fv.length kf_blocks - 1 do
    Fv.set kf_blocks i (Gf.random rng)
  done;
  let kf_out = Fv.create (4 * kf_n) in
  let kf_fold lane =
    let acc = ref 0L in
    for i = 0 to (4 * kf_n) - 1 do
      acc := Int64.logxor (Int64.mul !acc 31L) (lane i)
    done;
    Printf.sprintf "%Lx" !acc
  in
  (* A whole flat Merkle tree over 2^13 leaves: every level through the
     node kernel, eight (x8) or four (x4) nodes per permutation under
     SIMD. *)
  let mk_n = scale 8192 64 in
  let mk_digests = Array.init mk_n (fun i -> Keccak.sha3_256 (Bytes.of_string (string_of_int i))) in
  let mk_leaves = Merkle.of_digests mk_digests in
  let ch_dst = Fv.create (4 * ch_cols) in
  (* rsa-fri's layer-0 commit: a 2 x 2^14 codeword matrix, its 2^14
     column leaves and the tree over them ([Fri.commit_layer], the commit
     half of the FRI layer step, on a RAM-backed layer). *)
  let mf_half = scale (1 lsl 14) 64 in
  let mf_evals = Fv.create (2 * mf_half) in
  for i = 0 to (2 * mf_half) - 1 do
    Fv.set mf_evals i (Gf.random rng)
  done;
  let mf_layer = Spill.of_fv mf_evals in
  (* One layer of an rsa-fri opening's spot checks: 30 authentication
     paths of depth 14 walked together against one root. *)
  let cp_paths = 30 and cp_depth = scale 14 6 in
  let cp_tree =
    Merkle.build
      (Merkle.of_digests
         (Array.init (1 lsl cp_depth) (fun i ->
              Keccak.sha3_256 (Bytes.of_string (string_of_int (-i))))))
  in
  let cp_index = Array.init cp_paths (fun _ -> Rng.int rng (1 lsl cp_depth)) in
  let cp_leaves = Fv.create (4 * cp_paths) in
  let cp_lanes = Fv.create (4 * cp_paths * cp_depth) in
  Array.iteri
    (fun k i ->
      Keccak.set_digest cp_leaves k (Keccak.sha3_256 (Bytes.of_string (string_of_int (-i))));
      Merkle.path_into cp_tree i cp_lanes ~pos:(4 * k * cp_depth))
    cp_index;
  let cp_pos = Array.init cp_paths (fun k -> 4 * k * cp_depth) in
  (* The sumcheck fold/round-point kernel, at a fixed field constant. *)
  let sc_r = Gf.random rng in
  (* One sumcheck round as Spartan's first sumcheck runs it over 4 tables
     of 2^16, degree 3 (eq * (az * bz - cz)): the fused pass that reads
     the tables once, folds them with the previous challenge into 2^15
     halves and evaluates the round polynomial over those (2^14 pairs). *)
  let sc_n = scale (1 lsl 16) (1 lsl 10) in
  let sc_tables =
    Array.init 4 (fun _ ->
        let t = Fv.create sc_n in
        for i = 0 to sc_n - 1 do
          Fv.set t i (Gf.random rng)
        done;
        t)
  in
  let sc_dst = Array.map (fun _ -> Fv.create (sc_n / 2)) sc_tables in
  (* The eq table Spartan's first sumcheck starts from, at 2^16. *)
  let eq_point = Array.init (scale 16 10) (fun _ -> Gf.random rng) in
  let eq_dst = Fv.create (1 lsl Array.length eq_point) in
  (* The Spartan verifier's matrix evaluation at rsa-fri size (the RSA
     circuit at 16 instances: l = 14, ~25.6k nonzeros over A, B, C): one
     tensor-split CSR walk per matrix against fixed eq tables. *)
  let ce_inst, _ = Benchmarks.rsa.Benchmarks.generate (scale 16 1) in
  let ce_point () = Array.init ce_inst.R1cs.log_size (fun _ -> Gf.random rng) in
  let ce_rx = ce_point () and ce_ry = ce_point () in
  let ce_row_hi, ce_row_lo, _ = Mle.eq_split ce_rx in
  let ce_col_hi, ce_col_lo, _ = Mle.eq_split ce_ry in
  let ce_row_eq = Mle.eq_fv ce_rx and ce_col_eq = Mle.eq_fv ce_ry in
  let ce_mats = [ ce_inst.R1cs.a; ce_inst.R1cs.b; ce_inst.R1cs.c ] in
  (* Orion's Fiat-Shamir draws at litmus scale: one 128-challenge rho
     vector and one 189-column index draw over 128 columns, each from a
     fresh transcript that has absorbed an evaluation point. The squeezes
     of each are batched through [Keccak.sha3_blocks_into]. *)
  let tr_point = Array.init 13 (fun _ -> Gf.random rng) in
  let transcript () =
    let t = Transcript.create "bench-native" in
    Transcript.absorb_gf t "orion/point" tr_point;
    t
  in
  let transcript_oracle () =
    let t = Transcript_oracle.create "bench-native" in
    Transcript_oracle.absorb_gf t "orion/point" tr_point;
    t
  in
  let gfs a = String.concat "," (Array.to_list (Array.map Gf.to_string a)) in
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  let last a = a.(Array.length a - 1) in
  let halves t =
    let h = Fv.length t / 2 in
    (Fv.sub_view t ~pos:0 ~len:h, Fv.sub_view t ~pos:h ~len:h)
  in
  [
    {
      k_name = "fv-mul";
      k_n = ew_n;
      k_run =
        (fun () ->
          Fv.mul_into ~dst:ew_dst ew_a ew_b;
          Gf.to_string (Fv.get ew_dst (ew_n - 1)));
      k_oracle =
        (fun () ->
          Fv_oracle.mul_into ~dst:ew_dst ew_a ew_b;
          Gf.to_string (Fv.get ew_dst (ew_n - 1)));
      k_x4 = false;
    };
    {
      k_name = "sumcheck-round";
      k_n = sc_n;
      k_run =
        (fun () ->
          let g = Sumcheck.round_kernel Sumcheck.Eq_abc ~fold:(sc_r, sc_dst) sc_tables in
          gfs g ^ Gf.to_string (Fv.get sc_dst.(3) ((sc_n / 2) - 1)));
      k_oracle =
        (fun () ->
          (* The two-pass round: fold every table, then evaluate. *)
          let split ts =
            (Array.map (fun t -> fst (halves t)) ts, Array.map (fun t -> snd (halves t)) ts)
          in
          let lo, hi = split sc_tables in
          Sumcheck_oracle.fold ~dst:sc_dst ~lo ~hi sc_r;
          let lo, hi = split sc_dst in
          let g =
            Sumcheck_oracle.round_poly ~degree:3 ~comb:Sumcheck_oracle.eq_abc_vector ~lo ~hi
          in
          gfs g ^ Gf.to_string (Fv.get sc_dst.(3) ((sc_n / 2) - 1)));
      k_x4 = false;
    };
    {
      k_name = "eq-table";
      k_n = Fv.length eq_dst;
      k_run =
        (fun () ->
          Mle.eq_table_into eq_point ~lo:0 eq_dst;
          Gf.to_string (Fv.get eq_dst (Fv.length eq_dst - 1)));
      k_oracle =
        (fun () ->
          Mle_oracle.eq_table_into eq_point ~lo:0 eq_dst;
          Gf.to_string (Fv.get eq_dst (Fv.length eq_dst - 1)));
      k_x4 = false;
    };
    {
      k_name = "csr-eval";
      k_n = R1cs.nnz ce_inst;
      k_run =
        (fun () ->
          Gf.to_string
            (List.fold_left
               (fun acc m ->
                 Gf.add acc
                   (Sparse.mle_eval_split m ~row_hi:ce_row_hi ~row_lo:ce_row_lo
                      ~col_hi:ce_col_hi ~col_lo:ce_col_lo))
               Gf.zero ce_mats));
      k_oracle =
        (fun () ->
          Gf.to_string
            (List.fold_left
               (fun acc m ->
                 Gf.add acc (Sparse_oracle.mle_eval m ~row_eq:ce_row_eq ~col_eq:ce_col_eq))
               Gf.zero ce_mats));
      k_x4 = false;
    };
    {
      k_name = "ntt-forward-rows";
      k_n = ntt_rows * ntt_cols;
      k_run =
        (fun () ->
          Fv.blit ~src:ntt_input ~src_pos:0 ~dst:ntt_buf ~dst_pos:0
            ~len:(ntt_rows * ntt_cols);
          for r = 0 to ntt_rows - 1 do
            Gf_fv.forward ntt_plan (Fv.sub_view ntt_buf ~pos:(r * ntt_cols) ~len:ntt_cols)
          done;
          Gf.to_string (Fv.get ntt_buf ((ntt_rows * ntt_cols) - 1)));
      k_oracle =
        (fun () ->
          let plan = Ntt.Gf_ntt.plan ntt_cols in
          Gf.to_string (last (last (Array.map (Ntt.Gf_ntt.forward_copy plan) ntt_boxed))));
      k_x4 = false;
    };
    {
      k_name = "keccak-f1600";
      k_n = kf_n;
      k_run =
        (fun () ->
          Native.sha3_blocks kf_blocks kf_out 0 kf_n;
          kf_fold (Fv.get kf_out));
      k_oracle =
        (fun () ->
          let out = Array.make (4 * kf_n) 0L in
          for i = 0 to kf_n - 1 do
            let st =
              Array.init 25 (fun l ->
                  if l < Keccak.rate_lanes then Fv.get kf_blocks ((Keccak.rate_lanes * i) + l)
                  else 0L)
            in
            Keccak_oracle.keccak_f1600 st;
            Array.blit st 0 out (4 * i) 4
          done;
          kf_fold (Array.get out));
      k_x4 = true;
    };
    {
      k_name = "rs-encode-rows";
      k_n = rs_rows * rs_cols;
      k_run =
        (fun () ->
          for r = 0 to rs_rows - 1 do
            Reed_solomon.encode_row_into
              ~src:(Fv.sub_view rs_flat ~pos:(r * rs_cols) ~len:rs_cols)
              ~dst:(Fv.sub_view rs_out ~pos:(r * rs_len) ~len:rs_len)
          done;
          Gf.to_string (Fv.get rs_out (((rs_rows - 1) * rs_len) + 1)));
      k_oracle =
        (fun () -> Gf.to_string (last (Array.map Ecc_oracle.rs_encode rs_boxed)).(1));
      k_x4 = false;
    };
    {
      k_name = "col-hash";
      k_n = ch_rows * ch_cols;
      k_run =
        (fun () ->
          Keccak.hash_cols_into ~rows:ch_rows ~cols:ch_cols ch_flat ~dst:ch_dst;
          Keccak.to_hex (Keccak.digest_at ch_dst (ch_cols - 1)));
      k_oracle =
        (fun () ->
          (* Each column packed as 8 little-endian bytes per element,
             through the boxed sponge. *)
          let column j =
            let b = Bytes.create (8 * ch_rows) in
            for r = 0 to ch_rows - 1 do
              Bytes.set_int64_le b (8 * r) (Fv.get ch_flat ((r * ch_cols) + j))
            done;
            Keccak_oracle.sha3_256 b
          in
          Keccak.to_hex (last (Array.init ch_cols column)));
      k_x4 = true;
    };
    {
      k_name = "merkle-check-paths";
      k_n = cp_paths * cp_depth;
      k_run =
        (fun () ->
          let ok =
            Merkle.check_paths ~root:(Merkle.root cp_tree) ~depth:cp_depth ~index:cp_index
              ~leaves:cp_leaves ~paths:cp_lanes ~path_pos:cp_pos
          in
          string_of_int (Array.fold_left (fun n b -> if b then n + 1 else n) 0 ok));
      k_oracle =
        (fun () ->
          let root = Merkle.root cp_tree in
          let ok k =
            Merkle_oracle.check_path ~root ~index:cp_index.(k)
              ~leaf:(Keccak.digest_at cp_leaves k)
              ~path:(List.init cp_depth (fun d -> Keccak.digest_at cp_lanes ((k * cp_depth) + d)))
            = Ok ()
          in
          string_of_int (List.length (List.filter ok (List.init cp_paths Fun.id))));
      k_x4 = true;
    };
    {
      k_name = "merkle-build";
      k_n = mk_n;
      k_run = (fun () -> Keccak.to_hex (Merkle.root (Merkle.build mk_leaves)));
      k_oracle = (fun () -> Keccak.to_hex (Merkle_oracle.root (Merkle_oracle.build mk_digests)));
      k_x4 = true;
    };
    {
      k_name = "transcript-rho";
      k_n = 128;
      k_run =
        (fun () ->
          let t = transcript () in
          let rho = Transcript.challenge_gf_vec t "orion/rho" 128 in
          gfs rho ^ Printf.sprintf ";%d" (Transcript.hash_count t));
      k_oracle =
        (fun () ->
          let t = transcript_oracle () in
          let rho = Transcript_oracle.challenge_gf_vec t "orion/rho" 128 in
          gfs rho ^ Printf.sprintf ";%d" (Transcript_oracle.hash_count t));
      k_x4 = true;
    };
    {
      k_name = "transcript-indices";
      k_n = 189;
      k_run =
        (fun () ->
          let t = transcript () in
          let ix = Transcript.challenge_indices t "orion/columns" ~bound:128 ~count:189 in
          ints ix ^ Printf.sprintf ";%d" (Transcript.hash_count t));
      k_oracle =
        (fun () ->
          let t = transcript_oracle () in
          let ix = Transcript_oracle.challenge_indices t "orion/columns" ~bound:128 ~count:189 in
          ints ix ^ Printf.sprintf ";%d" (Transcript_oracle.hash_count t));
      k_x4 = true;
    };
    {
      k_name = "merkle-build-fri";
      k_n = mf_half;
      k_run = (fun () -> Keccak.to_hex (Merkle.root (Fri.commit_layer ~budget:None mf_layer)));
      k_oracle =
        (fun () ->
          (* Leaf j is the column (f(x_j), f(-x_j)) of the 2 x half layer. *)
          let leaf j =
            Merkle_oracle.leaf_of_column [| Fv.get mf_evals j; Fv.get mf_evals (j + mf_half) |]
          in
          Keccak.to_hex (Merkle_oracle.root (Merkle_oracle.build (Array.init mf_half leaf))));
      k_x4 = true;
    };
  ]

type row = {
  kernel : kernel;
  ocaml_s : float;
  scalar_s : float;
  simd_s : float;
  x4_s : float option; (* the AVX2 tier alone, for the [k_x4] kernels *)
  fingerprint_equal : bool;
}

let measure_kernel ~smoke k =
  let reps = if smoke then 2 else 5 in
  let under leg run =
    leg (fun () ->
        (* Warm-up builds plans/twiddles and takes the equality fingerprint. *)
        let fp = run () in
        (fp, Bench_report.time_best ~reps run))
  in
  let fp_ocaml, ocaml_s = under (fun f -> f ()) k.k_oracle in
  let fp_scalar, scalar_s = under Native.with_scalar_c k.k_run in
  let fp_simd, simd_s = under (fun f -> f ()) k.k_run in
  let fp_x4, x4_s =
    if k.k_x4 then
      let fp, t = under Native.with_avx2_only k.k_run in
      (fp, Some t)
    else (fp_simd, None)
  in
  {
    kernel = k;
    ocaml_s;
    scalar_s;
    simd_s;
    x4_s;
    fingerprint_equal =
      List.for_all (String.equal fp_ocaml) [ fp_scalar; fp_simd; fp_x4 ];
  }

let speedup_scalar r = r.ocaml_s /. r.scalar_s
let speedup_simd r = r.ocaml_s /. r.simd_s

(* --- report --------------------------------------------------------------- *)

let schema_id = "nocap-bench-native/v1"

let document rows =
  let open Bench_report in
  let open Json_min in
  [
    ("domains", int 1);
    ("features", Str (Native.features_to_string ()));
    ("default_mode", Str (Native.mode_to_string (Native.mode ())));
    ( "kernels",
      objs
        (fun r ->
          [
            ("name", Str r.kernel.k_name);
            ("n", int r.kernel.k_n);
            ("fingerprint_equal", Bool r.fingerprint_equal);
            ("ocaml_seconds", Num r.ocaml_s);
            ("scalar_seconds", Num r.scalar_s);
            ("simd_seconds", Num r.simd_s);
            ("speedup_scalar", Num (speedup_scalar r));
            ("speedup_simd", Num (speedup_simd r));
          ]
          @ match r.x4_s with Some t -> [ ("simd_x4_seconds", Num t) ] | None -> [])
        rows );
  ]

(* >= 6 kernels, the flat Merkle build among them, each with all its
   legs' fingerprints equal and positive sizes, timings and speedups. *)
let gates rows =
  let positive key f = (List.for_all (fun r -> f r > 0.0) rows, key ^ " must be positive") in
  [
    (List.length rows >= 6, "need >= 6 kernels");
    ( List.exists (fun r -> r.kernel.k_name = "merkle-build") rows,
      "need a merkle-build row" );
    positive "n" (fun r -> float_of_int r.kernel.k_n);
    positive "ocaml_seconds" (fun r -> r.ocaml_s);
    positive "scalar_seconds" (fun r -> r.scalar_s);
    positive "simd_seconds" (fun r -> r.simd_s);
    ( List.for_all (fun r -> Option.fold ~none:true ~some:(fun t -> t > 0.0) r.x4_s) rows,
      "simd_x4_seconds must be positive" );
    positive "speedup_scalar" speedup_scalar;
    positive "speedup_simd" speedup_simd;
  ]
  @ List.map (fun r -> (r.fingerprint_equal, r.kernel.k_name ^ " diverged across legs")) rows
  @ Bench_report.require ~what:"kernel"
      (List.map (fun r -> r.kernel.k_name) rows)
      [
        "sumcheck-round"; "eq-table"; "csr-eval"; "ntt-forward-rows"; "keccak-f1600";
        "rs-encode-rows"; "merkle-check-paths"; "merkle-build-fri"; "transcript-rho";
        "transcript-indices";
      ]

(* --- driver ------------------------------------------------------------- *)

let run ~smoke ~path =
  Bench_report.section "Native kernels: OCaml reference vs scalar C vs SIMD (single domain)" ~smoke;
  Printf.printf "cpu features: %s, default tier: %s\n%!"
    (Native.features_to_string ())
    (Native.mode_to_string (Native.mode ()));
  let rng = Rng.create 0x5E1FL in
  let rows =
    Pool.with_domains 1 (fun () -> List.map (measure_kernel ~smoke) (kernels ~smoke rng))
  in
  Zk_report.Render.table
    ~header:[ "kernel"; "n"; "ocaml"; "scalar C"; "simd x4"; "simd"; "scalar x"; "simd x" ]
    (List.map
       (fun r ->
         [
           r.kernel.k_name;
           string_of_int r.kernel.k_n;
           Zk_report.Render.seconds r.ocaml_s;
           Zk_report.Render.seconds r.scalar_s;
           Option.fold ~none:"-" ~some:Zk_report.Render.seconds r.x4_s;
           Zk_report.Render.seconds r.simd_s;
           Printf.sprintf "%.2fx" (speedup_scalar r);
           Printf.sprintf "%.2fx" (speedup_simd r);
         ])
       rows);
  (match List.find_opt (fun r -> r.kernel.k_name = "keccak-f1600") rows with
  | Some r ->
    let ns s = 1e9 *. s /. float_of_int r.kernel.k_n in
    Printf.printf "keccak-f1600 ns/perm: %.0f OCaml, %.0f scalar C, %.0f simd\n%!"
      (ns r.ocaml_s) (ns r.scalar_s) (ns r.simd_s)
  | None -> ());
  Bench_report.write ~path ~schema:schema_id ~gates:(gates rows) (document rows)
