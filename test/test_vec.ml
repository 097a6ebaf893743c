(* Tests for the unboxed vector layer (lib/vec) and every hot path threaded
   through it: each Fv kernel against its Gf.t array oracle, the flat NTT
   against Gf_ntt, flat Keccak/Merkle/RS/expander/sumcheck/Orion paths
   against their boxed counterparts, arena semantics, and an allocation
   regression on the Fv loops. *)

module Fv = Nocap_vec.Fv
module Gf = Zk_field.Gf
module Rng = Zk_util.Rng
module Ntt = Zk_ntt.Ntt
module Keccak = Zk_hash.Keccak
module Transcript = Zk_hash.Transcript
module Merkle = Zk_merkle.Merkle
module Mle = Zk_poly.Mle
module Rs = Zk_ecc.Reed_solomon
module Expander = Zk_ecc.Expander
module Sumcheck = Zk_sumcheck.Sumcheck
module Orion = Zk_orion.Orion
module Pool = Nocap_parallel.Pool

let gf_testable = Alcotest.testable Gf.pp Gf.equal

let gf_array_eq = Alcotest.(check (array gf_testable))

(* Random Gf arrays of awkward sizes: always includes 0, 1, and odd
   lengths via the size generator. *)
let arb_gf_array =
  let gen =
    QCheck.Gen.(
      let* n = oneof [ return 0; return 1; int_bound 65 ] in
      let* seed = int in
      return
        (Array.init n (fun i ->
             Gf.random (Rng.create (Int64.of_int ((seed * 4099) + i))))))
  in
  QCheck.make ~print:(fun a -> Printf.sprintf "<%d elems>" (Array.length a)) gen

let arb_two_arrays =
  let gen =
    QCheck.Gen.(
      let* n = oneof [ return 0; return 1; int_bound 65 ] in
      let* seed = int in
      let mk tag =
        Array.init n (fun i ->
            Gf.random (Rng.create (Int64.of_int ((seed * 8191) + (tag * 131) + i))))
      in
      return (mk 1, mk 2))
  in
  QCheck.make ~print:(fun (a, _) -> Printf.sprintf "<2 x %d elems>" (Array.length a)) gen

(* --- Fv primitives vs. array oracles ------------------------------------ *)

let prop_roundtrip =
  QCheck.Test.make ~count:200 ~name:"Fv.of_array/to_array roundtrip" arb_gf_array (fun a ->
      let v = Fv.of_array a in
      Fv.length v = Array.length a
      && Fv.to_array v = a
      && Fv.equal v (Fv.copy v)
      && Array.for_all2 Gf.equal (Fv.to_array v) a)

let prop_elementwise =
  QCheck.Test.make ~count:200 ~name:"Fv add/sub/mul/scale/axpy/map vs array oracle"
    arb_two_arrays (fun (a, b) ->
      let n = Array.length a in
      let va = Fv.of_array a and vb = Fv.of_array b in
      let dst = Fv.create n in
      let c = Gf.of_int 0x5eed in
      let check oracle =
        Array.for_all2 Gf.equal (Fv.to_array dst) (Array.init n oracle)
      in
      Fv.add_into ~dst va vb;
      let ok_add = check (fun i -> Gf.add a.(i) b.(i)) in
      Fv.sub_into ~dst va vb;
      let ok_sub = check (fun i -> Gf.sub a.(i) b.(i)) in
      Fv.mul_into ~dst va vb;
      let ok_mul = check (fun i -> Gf.mul a.(i) b.(i)) in
      Fv.scale_into ~dst va c;
      let ok_scale = check (fun i -> Gf.mul c a.(i)) in
      Fv.blit ~src:vb ~src_pos:0 ~dst ~dst_pos:0 ~len:n;
      Fv.axpy_into ~dst c va;
      let ok_axpy = check (fun i -> Gf.add b.(i) (Gf.mul c a.(i))) in
      ok_add && ok_sub && ok_mul && ok_scale && ok_axpy)

let prop_fold_sum =
  QCheck.Test.make ~count:200 ~name:"Fv.fold/sum vs array oracle" arb_gf_array (fun a ->
      let v = Fv.of_array a in
      let expected = Array.fold_left Gf.add Gf.zero a in
      Gf.equal (Fv.sum v) expected && Gf.equal (Fv.fold Gf.add Gf.zero v) expected)

let prop_views =
  QCheck.Test.make ~count:200 ~name:"Fv.sub_view shares storage; blit windows"
    arb_gf_array (fun a ->
      let n = Array.length a in
      QCheck.assume (n >= 2);
      let v = Fv.of_array a in
      let pos = n / 3 and len = n / 2 in
      let len = min len (n - pos) in
      let view = Fv.sub_view v ~pos ~len in
      (* A write through the view is a write to the parent. *)
      (len = 0
      ||
      (Fv.set view 0 (Gf.of_int 77);
       Gf.equal (Fv.get v pos) (Gf.of_int 77)))
      &&
      (* A blit copies the window. *)
      let out = Fv.create len in
      Fv.blit ~src:v ~src_pos:pos ~dst:out ~dst_pos:0 ~len;
      Array.for_all2 Gf.equal (Fv.to_array out) (Array.init len (fun i -> Fv.get v (pos + i))))

let test_bounds () =
  let v = Fv.create 4 in
  (try
     ignore (Fv.get v 4);
     Alcotest.fail "out-of-bounds get accepted"
   with Invalid_argument _ -> ());
  (try
     Fv.add_into ~dst:v (Fv.create 3) (Fv.create 3);
     Alcotest.fail "length mismatch accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Fv.sub_view v ~pos:2 ~len:3);
     Alcotest.fail "oversized view accepted"
   with Invalid_argument _ -> ())

(* --- flat NTT vs Gf_ntt oracle ------------------------------------------- *)

let test_ntt_equiv () =
  let rng = Rng.create 7L in
  List.iter
    (fun log_n ->
      let n = 1 lsl log_n in
      let input = Array.init n (fun _ -> Gf.random rng) in
      let plan = Ntt.Gf_ntt.plan n in
      let plan_fv = Ntt.Gf_fv.plan n in
      let expected = Ntt.Gf_ntt.forward_copy plan input in
      let v = Fv.of_array input in
      Ntt.Gf_fv.forward plan_fv v;
      gf_array_eq (Printf.sprintf "forward n=%d" n) expected (Fv.to_array v);
      Ntt.Gf_fv.inverse plan_fv v;
      gf_array_eq (Printf.sprintf "inverse n=%d" n) input (Fv.to_array v))
    [ 0; 1; 2; 5; 8; 10 ]

(* Rows of one flat buffer transformed in place through row views (the
   view a row encoder hands the NTT), odd row count, against the boxed
   transform of each row; the inverse brings every row back. *)
let test_ntt_rows_flat () =
  let rng = Rng.create 8L in
  let rows = 5 and n = 64 in
  let flat_arr = Array.init (rows * n) (fun _ -> Gf.random rng) in
  let plan = Ntt.Gf_ntt.plan n and plan_fv = Ntt.Gf_fv.plan n in
  let flat = Fv.of_array flat_arr in
  let row r = Fv.sub_view flat ~pos:(r * n) ~len:n in
  for r = 0 to rows - 1 do
    Ntt.Gf_fv.forward plan_fv (row r)
  done;
  for r = 0 to rows - 1 do
    gf_array_eq (Printf.sprintf "row %d" r)
      (Ntt.Gf_ntt.forward_copy plan (Array.sub flat_arr (r * n) n))
      (Fv.to_array (row r))
  done;
  for r = 0 to rows - 1 do
    Ntt.Gf_fv.inverse plan_fv (row r)
  done;
  gf_array_eq "inverse rows" flat_arr (Fv.to_array flat)

let test_four_step () =
  let rng = Rng.create 9L in
  List.iter
    (fun (rows, cols) ->
      let a = Array.init (rows * cols) (fun _ -> Gf.random rng) in
      let expected = Ntt_oracle.four_step_forward ~rows ~cols a in
      let got = Ntt_oracle.four_step_forward_fv ~rows ~cols (Fv.of_array a) in
      gf_array_eq (Printf.sprintf "four-step %dx%d" rows cols) expected (Fv.to_array got);
      (* and both equal the direct flat transform *)
      let direct = Ntt.Gf_ntt.forward_copy (Ntt.Gf_ntt.plan (rows * cols)) a in
      gf_array_eq (Printf.sprintf "four-step = direct %dx%d" rows cols) direct expected)
    [ (2, 2); (4, 8); (16, 16); (8, 64) ]

(* --- flat keccak / merkle ------------------------------------------------ *)

(* SHA3-256 of field elements packed as 8 little-endian bytes each, by
   the byte-level oracle sponge. *)
let sha3_packed a =
  let buf = Bytes.create (8 * Array.length a) in
  Array.iteri (fun i x -> Bytes.set_int64_le buf (8 * i) (Gf.to_int64 x)) a;
  Keccak_oracle.sha3_256 buf

let test_hash_column () =
  let rng = Rng.create 10L in
  (* Sizes straddle the 17-element rate: 0, partial, exactly one block,
     one block + 1, several blocks. *)
  List.iter
    (fun n ->
      let a = Array.init n (fun _ -> Gf.random rng) in
      let dst = Fv.create 4 in
      Keccak.hash_cols_into ~rows:n ~cols:1 (Fv.of_array a) ~dst;
      Alcotest.(check string)
        (Printf.sprintf "one-column leaf n=%d" n)
        (Keccak.to_hex (sha3_packed a))
        (Keccak.to_hex (Keccak.digest_at dst 0)))
    [ 0; 1; 5; 16; 17; 18; 34; 100 ]

let test_hash_node () =
  let d1 = Keccak.sha3_256_string "left" and d2 = Keccak.sha3_256_string "right" in
  let src = Fv.create 8 and dst = Fv.create 4 in
  Keccak.set_digest src 0 d1;
  Keccak.set_digest src 1 d2;
  Keccak.hash_nodes_into ~src ~dst;
  Alcotest.(check string) "node = sha3(a||b)"
    (Keccak.to_hex (Keccak_oracle.sha3_256 (Bytes.of_string (d1 ^ d2))))
    (Keccak.to_hex (Keccak.digest_at dst 0))

let test_hash_cols_packed_oracle () =
  (* hash_cols_into absorbs each column lane-aligned with stride [cols];
     the oracle packs the gathered column into bytes and hashes those. *)
  let rng = Rng.create 11L in
  let cols = 5 in
  List.iter
    (fun rows ->
      let a = Array.init (rows * cols) (fun _ -> Gf.random rng) in
      let dst = Fv.create (4 * cols) in
      Keccak.hash_cols_into ~rows ~cols (Fv.of_array a) ~dst;
      for j = 0 to cols - 1 do
        Alcotest.(check string)
          (Printf.sprintf "column %d = sha3(packed) rows=%d" j rows)
          (Keccak.to_hex (sha3_packed (Array.init rows (fun r -> a.((r * cols) + j)))))
          (Keccak.to_hex (Keccak.digest_at dst j))
      done)
    [ 0; 3; 17; 40 ]

let test_leaves_of_matrix () =
  let rng = Rng.create 12L in
  let rows = 7 and cols = 19 in
  let flat = Array.init (rows * cols) (fun _ -> Gf.random rng) in
  let gathered =
    Array.init cols (fun j -> Array.init rows (fun r -> flat.((r * cols) + j)))
  in
  let expected = Array.map Merkle_oracle.leaf_of_column gathered in
  let got = Merkle.leaves_of_matrix ~rows ~cols (Fv.of_array flat) in
  Alcotest.(check (array string)) "leaves" expected (Array.init cols (Keccak.digest_at got));
  Alcotest.(check string) "same root"
    (Keccak.to_hex (Merkle.root (Merkle.build (Merkle.of_digests expected))))
    (Keccak.to_hex (Merkle.root (Merkle.build got)))

(* --- sumcheck: unboxed prover vs boxed oracle ---------------------------- *)

let test_sumcheck_prove_equiv () =
  let rng = Rng.create 15L in
  let n = 1 lsl 8 in
  let tables = Array.init 4 (fun _ -> Array.init n (fun _ -> Gf.random rng)) in
  let comb = Sumcheck_oracle.spartan_comb_scalar in
  let claim =
    let acc = ref Gf.zero in
    for b = 0 to n - 1 do
      acc := Gf.add !acc (comb (Array.map (fun t -> t.(b)) tables))
    done;
    !acc
  in
  let a =
    Sumcheck_oracle.prove_arrays ~comb_mults:2 (Transcript.create "test-vec-sumcheck") ~degree:3
      ~tables ~comb ~claim
  and b =
    Sumcheck.prove (Transcript.create "test-vec-sumcheck")
      ~tables:(Sumcheck_oracle.spills tables) ~comb:Sumcheck.Eq_abc
  in
  Array.iteri
    (fun i g -> gf_array_eq (Printf.sprintf "round %d" i) g b.Sumcheck.proof.Sumcheck.round_polys.(i))
    a.Sumcheck.proof.Sumcheck.round_polys;
  gf_array_eq "challenges" a.Sumcheck.challenges b.Sumcheck.challenges;
  gf_array_eq "final values" a.Sumcheck.final_values b.Sumcheck.final_values;
  Alcotest.(check int) "stats.mults" a.Sumcheck.stats.Sumcheck.mults b.Sumcheck.stats.Sumcheck.mults;
  (* tables must not be mutated by either prover *)
  Alcotest.check gf_testable "tables untouched" tables.(0).(0) tables.(0).(0)

(* --- orion: flat commit vs boxed pipeline oracle -------------------------- *)

let test_orion_flat_commit () =
  let rng = Rng.create 16L in
  let n = 1 lsl 10 in
  let table = Array.init n (fun _ -> Gf.random rng) in
  let params =
    { Orion.rows = 16; code = (module Rs); proximity_count = 4; zk = false }
  in
  let rows = 16 in
  let cols = n / rows in
  (* Boxed oracle: same pipeline assembled from the reference encoder and
     the string-digest tree. *)
  let matrix = Array.init rows (fun r -> Array.sub table (r * cols) cols) in
  let encoded = Array.map Ecc_oracle.rs_encode matrix in
  let code_len = Rs.blowup * cols in
  let gathered = Array.init code_len (fun j -> Array.map (fun row -> row.(j)) encoded) in
  let expected_root =
    Merkle_oracle.root (Merkle_oracle.build (Array.map Merkle_oracle.leaf_of_column gathered))
  in
  let committed, cm = Orion.commit params (Rng.create 1L) (Fv.of_array table) in
  Alcotest.(check string) "root matches boxed pipeline"
    (Keccak.to_hex expected_root)
    (Keccak.to_hex cm.Orion.root);
  (* u from prove_eval must equal the boxed row combination eq(q_row)^T W. *)
  let point = Array.init 10 (fun i -> Gf.of_int (i + 2)) in
  let transcript = Transcript.create "test-vec-orion" in
  Orion.absorb_commitment transcript cm;
  let value, proof = Orion.prove_eval params committed transcript point in
  let q_row, q_col = Orion.split_point cm point in
  let eq_row = Mle.eq_table q_row in
  let expected_u =
    Array.init cols (fun j ->
        let acc = ref Gf.zero in
        for r = 0 to rows - 1 do
          acc := Gf.add !acc (Gf.mul eq_row.(r) matrix.(r).(j))
        done;
        !acc)
  in
  gf_array_eq "u matches boxed row combination" expected_u (Fv.to_array proof.Orion.u);
  let eq_col = Mle.eq_table q_col in
  let expected_value =
    let acc = ref Gf.zero in
    Array.iteri (fun j u -> acc := Gf.add !acc (Gf.mul u eq_col.(j))) expected_u;
    !acc
  in
  Alcotest.check gf_testable "value" expected_value value;
  (* And the proof verifies against a mirrored transcript. *)
  let vt = Transcript.create "test-vec-orion" in
  Orion.absorb_commitment vt cm;
  match Orion.verify_eval params cm vt point value proof with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Zk_pcs.Verify_error.to_string e)

let test_orion_commit_domain_invariance () =
  let rng = Rng.create 17L in
  let n = 1 lsl 10 in
  let table = Fv.of_array (Array.init n (fun _ -> Gf.random rng)) in
  let params = { Orion.default_params with Orion.rows = 16 } in
  let root d =
    Pool.with_domains d (fun () ->
        let _, cm = Orion.commit params (Rng.create 2L) table in
        Keccak.to_hex cm.Orion.root)
  in
  let reference = root 1 in
  List.iter
    (fun d -> Alcotest.(check string) (Printf.sprintf "%d domains" d) reference (root d))
    [ 2; 4 ]

(* --- allocation regression ----------------------------------------------- *)

(* Whether cross-module inlining is active (release profile). The dev
   profile passes -opaque, which keeps the Gf primitives out-of-line and
   makes even Fv loops box their intermediates — minor-heap-allocation
   assertions only hold on the optimized build. Probed through [Fv.sum], an
   OCaml loop over [Gf.add]: a C kernel never allocates in any profile, so
   it would mask the very boxing this detector exists to find. *)
let inlining_active () =
  let n = 4096 in
  let v = Fv.create n in
  Fv.fill v Gf.one;
  ignore (Sys.opaque_identity (Fv.sum v));
  let m0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Fv.sum v));
  let m1 = Gc.minor_words () in
  (m1 -. m0) /. float_of_int n < 1.0

let test_allocation_regression () =
  (* Sized to fit the default minor heap so nothing is promoted mid-loop. *)
  let ntt_n = 1 lsl 10 and fold_n = 1 lsl 12 in
  let rng = Rng.create 18L in
  let ntt_buf = Fv.of_array (Array.init ntt_n (fun _ -> Gf.random rng)) in
  let plan = Ntt.Gf_fv.plan ntt_n in
  let fold_buf = Fv.of_array (Array.init fold_n (fun _ -> Gf.random rng)) in
  let r = Gf.random rng in
  let fold_pass () =
    let half = fold_n / 2 in
    for b = 0 to half - 1 do
      let x = Fv.unsafe_get fold_buf b in
      Fv.unsafe_set fold_buf b
        (Gf.add x (Gf.mul r (Gf.sub (Fv.unsafe_get fold_buf (b + half)) x)))
    done
  in
  (* Warm up (plan cache, first-touch), then measure one run of each. *)
  Ntt.Gf_fv.forward plan ntt_buf;
  fold_pass ();
  let measure f =
    Gc.full_major ();
    let s0 = Gc.quick_stat () in
    let m0 = Gc.minor_words () in
    f ();
    let m1 = Gc.minor_words () in
    let s1 = Gc.quick_stat () in
    (m1 -. m0, s1.Gc.major_words -. s0.Gc.major_words)
  in
  let ntt_minor, ntt_major = measure (fun () -> Ntt.Gf_fv.forward plan ntt_buf) in
  let fold_minor, fold_major = measure fold_pass in
  (* Major-heap words per element must be ~0 in every profile: nothing on
     these paths may allocate (or promote) into the major heap. *)
  Alcotest.(check bool) "NTT: no major-heap allocation" true
    (ntt_major /. float_of_int ntt_n < 0.01);
  Alcotest.(check bool) "fold: no major-heap allocation" true
    (fold_major /. float_of_int fold_n < 0.01);
  if inlining_active () then begin
    (* Optimized build: the loops must not allocate at all. *)
    Alcotest.(check bool)
      (Printf.sprintf "NTT: no minor allocation (%.1f words)" ntt_minor)
      true
      (ntt_minor /. float_of_int ntt_n < 0.5);
    Alcotest.(check bool)
      (Printf.sprintf "fold: no minor allocation (%.1f words)" fold_minor)
      true
      (fold_minor /. float_of_int fold_n < 0.5)
  end
  else
    (* Dev profile (-opaque): boxing is expected; the regression the test
       pins down is the major-heap one above. *)
    Printf.printf "test_vec: dev profile detected, skipping strict minor-allocation assertion\n%!"

let suite =
  [
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_elementwise;
    QCheck_alcotest.to_alcotest prop_fold_sum;
    QCheck_alcotest.to_alcotest prop_views;
    Alcotest.test_case "bounds checks" `Quick test_bounds;
    Alcotest.test_case "flat NTT = Gf_ntt" `Quick test_ntt_equiv;
    Alcotest.test_case "flat row NTTs" `Quick test_ntt_rows_flat;
    Alcotest.test_case "flat four-step NTT" `Quick test_four_step;
    Alcotest.test_case "one-column leaf = sha3(packed)" `Quick test_hash_column;
    Alcotest.test_case "node hash = sha3(a||b)" `Quick test_hash_node;
    Alcotest.test_case "lane-aligned column leaves" `Quick test_hash_cols_packed_oracle;
    Alcotest.test_case "leaves_of_matrix" `Quick test_leaves_of_matrix;
    Alcotest.test_case "sumcheck prove = prove_arrays" `Quick test_sumcheck_prove_equiv;
    Alcotest.test_case "orion flat commit vs boxed pipeline" `Quick test_orion_flat_commit;
    Alcotest.test_case "orion commit domain invariance" `Quick test_orion_commit_domain_invariance;
    Alcotest.test_case "allocation regression" `Quick test_allocation_regression;
  ]
