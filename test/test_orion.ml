(* Orion polynomial-commitment tests: commit/open round trips, rejection of
   forgeries, proof-size accounting, expander-code configuration. *)

module Gf = Zk_field.Gf
module Orion = Zk_orion.Orion
module Fv = Nocap_vec.Fv
module Mle = Zk_poly.Mle
module Transcript = Zk_hash.Transcript
module Rng = Zk_util.Rng
module Merkle = Zk_merkle.Merkle
module Keccak = Zk_hash.Keccak

let small_params =
  (* Fewer rows so tests exercise multi-column matrices at small sizes. *)
  { Orion.default_params with Orion.rows = 8 }

let random_table rng l = Array.init (1 lsl l) (fun _ -> Gf.random rng)

let roundtrip ?(params = small_params) ~seed l =
  let rng = Rng.create seed in
  let table = random_table rng l in
  let committed, cm = Orion.commit params rng table in
  let point = Array.init l (fun _ -> Gf.random rng) in
  let pt = Transcript.create "orion-test" in
  Orion.absorb_commitment pt cm;
  let value, proof = Orion.prove_eval params committed pt point in
  (* The opened value is the MLE evaluation. *)
  Alcotest.(check bool) "value = MLE eval" true (Gf.equal value (Mle_oracle.eval table point));
  let vt = Transcript.create "orion-test" in
  Orion.absorb_commitment vt cm;
  (match Orion.verify_eval params cm vt point value proof with
  | Ok () -> ()
  | Error e -> Alcotest.failf "verify failed: %s" (Zk_pcs.Verify_error.to_string e));
  (table, cm, point, value, proof)

let test_roundtrip_sizes () =
  List.iter (fun l -> ignore (roundtrip ~seed:(Int64.of_int (50 + l)) l)) [ 3; 4; 6; 8; 10 ]

let test_roundtrip_default_rows () =
  (* 2^10 table with the paper's 128 rows: 128 x 8 matrix. *)
  ignore (roundtrip ~params:Orion.default_params ~seed:60L 10)

let test_roundtrip_no_zk () =
  let params = { small_params with Orion.zk = false } in
  ignore (roundtrip ~params ~seed:61L 6)

let test_wrong_value_rejected () =
  let _, cm, point, value, proof = roundtrip ~seed:62L 6 in
  let vt = Transcript.create "orion-test" in
  Orion.absorb_commitment vt cm;
  match Orion.verify_eval small_params cm vt point (Gf.add value Gf.one) proof with
  | Ok () -> Alcotest.fail "accepted a wrong evaluation"
  | Error _ -> ()

let test_tampered_u_rejected () =
  let _, cm, point, value, proof = roundtrip ~seed:63L 6 in
  Fv.set proof.Orion.u 0 (Gf.add (Fv.get proof.Orion.u 0) Gf.one);
  let vt = Transcript.create "orion-test" in
  Orion.absorb_commitment vt cm;
  match Orion.verify_eval small_params cm vt point value proof with
  | Ok () -> Alcotest.fail "accepted a tampered combination"
  | Error _ -> ()

let test_tampered_column_rejected () =
  let _, cm, point, value, proof = roundtrip ~seed:64L 6 in
  (* First element of opening 5 (every opening has the same height). *)
  let i = 5 * proof.Orion.col_height.(0) in
  Fv.set proof.Orion.col_values i (Gf.add (Fv.get proof.Orion.col_values i) Gf.one);
  let vt = Transcript.create "orion-test" in
  Orion.absorb_commitment vt cm;
  match Orion.verify_eval small_params cm vt point value proof with
  | Ok () -> Alcotest.fail "accepted a tampered column"
  | Error _ -> ()

let test_wrong_point_rejected () =
  let _, cm, point, value, proof = roundtrip ~seed:65L 6 in
  let point' = Array.copy point in
  point'.(0) <- Gf.add point'.(0) Gf.one;
  let vt = Transcript.create "orion-test" in
  Orion.absorb_commitment vt cm;
  match Orion.verify_eval small_params cm vt point' value proof with
  | Ok () -> Alcotest.fail "accepted a wrong point"
  | Error _ -> ()

let test_proximity_masking_hides_rows () =
  (* With zk on, the revealed proximity vectors must differ from the raw
     rho-combination of the data rows (they are additively masked). *)
  let rng = Rng.create 66L in
  let l = 6 in
  let table = random_table rng l in
  let committed, cm = Orion.commit small_params rng table in
  let pt = Transcript.create "orion-test" in
  Orion.absorb_commitment pt cm;
  let point = Array.init l (fun _ -> Gf.random rng) in
  let _, proof = Orion.prove_eval small_params committed pt point in
  (* Reconstruct the unmasked combination with the same transcript schedule. *)
  let vt = Transcript.create "orion-test" in
  Orion.absorb_commitment vt cm;
  Transcript.absorb_gf vt "orion/point" point;
  let rows = cm.Orion.mat_rows and cols = cm.Orion.mat_cols in
  let rho = Transcript.challenge_gf_vec vt "orion/rho" rows in
  let raw = Array.make cols Gf.zero in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      raw.(c) <- Gf.add raw.(c) (Gf.mul rho.(r) table.((r * cols) + c))
    done
  done;
  let masked = Fv.to_array proof.Orion.proximity.(0) in
  Alcotest.(check bool) "first proximity vector is masked" true
    (Array.exists2 (fun a b -> not (Gf.equal a b)) raw masked)

let test_proof_size () =
  let _, cm, _, _, proof = roundtrip ~seed:67L 10 in
  let sz = Orion.proof_size_bytes small_params cm proof in
  (* u (128 cols) + 4 proximity vectors + 189 columns x (12 elems + path). *)
  Alcotest.(check bool) "plausible size" true (sz > 10_000 && sz < 3_000_000);
  (* Tighter: recompute from first principles. *)
  let cols = cm.Orion.mat_cols in
  let rows = cm.Orion.mat_rows + small_params.Orion.proximity_count in
  let path_len = Zk_merkle.Merkle.path_length (4 * cols) in
  let expected =
    (8 * cols) + (4 * 8 * cols) + (189 * (8 + (8 * rows) + (32 * path_len)))
  in
  Alcotest.(check int) "exact size" expected sz

(* Leaves and interior nodes share one hash, so at column height 8 a
   column made of the lanes of leaves 2j and 2j + 1 hashes to node (1, j),
   and leaf 2j's path without its first digest takes that node to the root
   at index j. An opened column at an index j below half the leaves is
   replaced by that forgery: the verifier must refuse the short path
   before walking it, not reach the combination checks. *)
let test_node_as_leaf_rejected () =
  let params = { small_params with Orion.zk = false } in
  let table, cm, point, value, proof = roundtrip ~params ~seed:69L 6 in
  let module Code = (val params.Orion.code : Zk_ecc.Linear_code.S) in
  let rows = cm.Orion.mat_rows and cols = cm.Orion.mat_cols in
  let len = Code.blowup * cols in
  Alcotest.(check int) "column height" 8 rows;
  (* The committed tree, rebuilt from the table. *)
  let encoded = Fv.create (rows * len) in
  for r = 0 to rows - 1 do
    Code.encode_row_into
      ~src:(Fv.of_array (Array.sub table (r * cols) cols))
      ~dst:(Fv.sub_view encoded ~pos:(r * len) ~len)
  done;
  let leaves = Merkle.leaves_of_matrix ~rows ~cols:len encoded in
  let tree = Merkle.build leaves in
  Alcotest.(check string) "rebuilt root" cm.Orion.root (Merkle.root tree);
  let depth = Merkle.depth tree in
  let rec first k = if proof.Orion.col_index.(k) < len / 2 then k else first (k + 1) in
  let k = first 0 in
  let j = proof.Orion.col_index.(k) in
  let col_values = Fv.copy proof.Orion.col_values in
  Fv.blit ~src:leaves ~src_pos:(8 * j) ~dst:col_values ~dst_pos:(rows * k) ~len:8;
  let short = Fv.create (4 * depth) in
  Merkle.path_into tree (2 * j) short ~pos:0;
  (* The forgery does hash up to the root along the short path. *)
  let column = Fv.to_array (Fv.sub_view col_values ~pos:(rows * k) ~len:rows) in
  Alcotest.(check (result unit string)) "node opens as a leaf" (Ok ())
    (Merkle_oracle.check_path ~root:cm.Orion.root ~index:j
       ~leaf:(Merkle_oracle.leaf_of_column column)
       ~path:(List.init (depth - 1) (fun d -> Keccak.digest_at short (d + 1))));
  let paths = Fv.create (Fv.length proof.Orion.paths - 4) in
  let at = 4 * depth * k in
  Fv.blit ~src:proof.Orion.paths ~src_pos:0 ~dst:paths ~dst_pos:0 ~len:at;
  Fv.blit ~src:short ~src_pos:4 ~dst:paths ~dst_pos:at ~len:(4 * (depth - 1));
  Fv.blit ~src:proof.Orion.paths ~src_pos:(at + (4 * depth)) ~dst:paths
    ~dst_pos:(at + (4 * (depth - 1)))
    ~len:(Fv.length paths - at - (4 * (depth - 1)));
  let path_len = Array.copy proof.Orion.path_len in
  path_len.(k) <- depth - 1;
  let forged = { proof with Orion.col_values; paths; path_len } in
  let vt = Transcript.create "orion-test" in
  Orion.absorb_commitment vt cm;
  match Orion.verify_eval params cm vt point value forged with
  | Ok () -> Alcotest.fail "accepted an interior node opened as a leaf"
  | Error e ->
    Alcotest.(check string) "reason"
      (Printf.sprintf "merkle_mismatch: column %d: wrong path length" k)
      (Zk_pcs.Verify_error.to_string e)

let test_expander_code_roundtrip () =
  (* Orion over the expander code (the pre-Shockwave configuration used by
     the Sec. VIII-C ablation) must also verify. *)
  let params =
    { Orion.rows = 8; code = (module Zk_ecc.Expander); proximity_count = 4; zk = true }
  in
  ignore (roundtrip ~params ~seed:68L 8)

(* --- batched verifier vs the column-at-a-time oracle -------------------- *)

(* Honest openings at a few shapes: data rows 8 with zk (12-element
   columns), without zk, and a one-column matrix. *)
let honest_openings =
  lazy
    (List.map
       (fun (params, l, seed) ->
         let rng = Rng.create seed in
         let table = random_table rng l in
         let committed, cm = Orion.commit params rng table in
         let point = Array.init l (fun _ -> Gf.random rng) in
         let pt = Transcript.create "orion-oracle" in
         Orion.absorb_commitment pt cm;
         let value, proof = Orion.prove_eval params committed pt point in
         (params, cm, point, value, proof))
       [
         (small_params, 5, 70L);
         ({ small_params with Orion.zk = false }, 4, 71L);
         (small_params, 3, 72L);
       ])

(* One opened column, unpacked so an edit may change its shape. *)
type opened = { j : int; vals : Gf.t array; lanes : int64 array }

let unpack (p : Orion.eval_proof) =
  let c = ref 0 and d = ref 0 in
  Array.init (Orion.num_openings p) (fun k ->
      let h = p.Orion.col_height.(k) and l = 4 * p.Orion.path_len.(k) in
      let o =
        {
          j = p.Orion.col_index.(k);
          vals = Array.init h (fun r -> Fv.get p.Orion.col_values (!c + r));
          lanes = Array.init l (fun i -> Fv.get p.Orion.paths (!d + i));
        }
      in
      c := !c + h;
      d := !d + l;
      o)

let pack (p : Orion.eval_proof) cols =
  {
    p with
    Orion.col_index = Array.map (fun o -> o.j) cols;
    col_height = Array.map (fun o -> Array.length o.vals) cols;
    col_values = Fv.of_array (Array.concat (Array.to_list (Array.map (fun o -> o.vals) cols)));
    path_len = Array.map (fun o -> Array.length o.lanes / 4) cols;
    paths = Fv.of_array (Array.concat (Array.to_list (Array.map (fun o -> o.lanes) cols)));
  }

(* Insert [x] before position [i] of [a] (i clamped to the length). *)
let insert a i x =
  let i = min i (Array.length a) in
  Array.concat [ Array.sub a 0 i; x; Array.sub a i (Array.length a - i) ]

let remove a i n =
  if Array.length a < n then a
  else
    let i = min i (Array.length a - n) in
    Array.append (Array.sub a 0 i) (Array.sub a (i + n) (Array.length a - i - n))

(* An edit is (kind, column, a, b); each kind reads the two numbers its
   own way. Kinds: column value, index, path digest, height (grow or
   shrink), path length (grow, shrink, or past the 62-digest limit),
   proximity element, u element. *)
let apply_edit (p : Orion.eval_proof) (kind, k, a, b) =
  let bump x = Gf.add x (Gf.of_int (1 + (b mod 1000))) in
  match kind mod 7 with
  | 6 ->
    let u = Fv.copy p.Orion.u in
    if Fv.length u > 0 then Fv.set u (a mod Fv.length u) (bump (Fv.get u (a mod Fv.length u)));
    { p with Orion.u }
  | 5 ->
    let prox = Array.map Fv.copy p.Orion.proximity in
    let v = prox.(a mod Array.length prox) in
    Fv.set v (b mod Fv.length v) (bump (Fv.get v (b mod Fv.length v)));
    { p with Orion.proximity = prox }
  | kind ->
    let cols = unpack p in
    let k = k mod Array.length cols in
    let o = cols.(k) in
    let o =
      match kind with
      | 0 when Array.length o.vals > 0 ->
        let vals = Array.copy o.vals in
        let i = a mod Array.length vals in
        vals.(i) <- bump vals.(i);
        { o with vals }
      | 1 -> { o with j = (if b land 1 = 0 then o.j + 1 + (a mod 3) else a mod 64) }
      | 2 when Array.length o.lanes > 0 ->
        let lanes = Array.copy o.lanes in
        let i = a mod Array.length lanes in
        lanes.(i) <- Int64.logxor lanes.(i) (Int64.shift_left 1L (b mod 64));
        { o with lanes }
      | 3 ->
        if b land 1 = 0 then { o with vals = insert o.vals a [| Gf.of_int b |] }
        else { o with vals = remove o.vals a 1 }
      | 4 -> (
        match b mod 3 with
        | 0 -> { o with lanes = insert o.lanes (4 * a) (Array.init 4 Int64.of_int) }
        | 1 -> { o with lanes = remove o.lanes (4 * a) 4 }
        | _ -> { o with lanes = insert o.lanes 0 (Array.make (4 * (60 + (a mod 8))) 7L) })
      | _ -> o
    in
    cols.(k) <- o;
    pack p cols

let verdict verify (params, cm, point, value, proof) =
  let vt = Transcript.create "orion-oracle" in
  Orion.absorb_commitment vt cm;
  Result.map_error Zk_pcs.Verify_error.to_string (verify params cm vt point value proof)

let prop_batched_vs_oracle (leg : Test_native.leg) ~count =
  QCheck.Test.make ~count
    ~name:(Printf.sprintf "batched column checks = column-at-a-time oracle (%s)" leg.name)
    QCheck.(
      pair small_nat
        (list_of_size (Gen.int_range 0 4)
           (quad small_nat (int_bound 1000) (int_bound 10_000) (int_bound 10_000))))
    (fun (which, edits) ->
      let openings = Lazy.force honest_openings in
      let params, cm, point, value, proof = List.nth openings (which mod List.length openings) in
      let proof = List.fold_left apply_edit proof edits in
      let case = (params, cm, point, value, proof) in
      leg.run (fun () ->
          let got = verdict (fun p cm t x v pr -> Orion.verify_eval p cm t x v pr) case in
          let want = verdict Orion_oracle.verify_eval case in
          if got <> want then
            QCheck.Test.fail_reportf "batched %s, oracle %s"
              (match got with Ok () -> "Ok" | Error e -> e)
              (match want with Ok () -> "Ok" | Error e -> e);
          edits <> [] || got = Ok ()))

let suite =
  [
    Alcotest.test_case "roundtrip across sizes" `Quick test_roundtrip_sizes;
    Alcotest.test_case "roundtrip 128 rows" `Quick test_roundtrip_default_rows;
    Alcotest.test_case "roundtrip without zk" `Quick test_roundtrip_no_zk;
    Alcotest.test_case "wrong value rejected" `Quick test_wrong_value_rejected;
    Alcotest.test_case "tampered u rejected" `Quick test_tampered_u_rejected;
    Alcotest.test_case "tampered column rejected" `Quick test_tampered_column_rejected;
    Alcotest.test_case "wrong point rejected" `Quick test_wrong_point_rejected;
    Alcotest.test_case "proximity masking" `Quick test_proximity_masking_hides_rows;
    Alcotest.test_case "proof size accounting" `Quick test_proof_size;
    Alcotest.test_case "expander-code configuration" `Quick test_expander_code_roundtrip;
    Alcotest.test_case "interior node opened as a leaf rejected" `Quick test_node_as_leaf_rejected;
  ]
  @ List.map
      (fun leg -> QCheck_alcotest.to_alcotest (prop_batched_vs_oracle leg ~count:120))
      Test_native.legs
