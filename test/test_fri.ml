(* FRI low-degree test: completeness across sizes, rejection of
   out-of-degree claims and tampered proofs — the second hash-based PCS
   demonstrating NoCap's generality claim (Sec. IV-E). *)

module Gf = Zk_field.Gf
module Fri = Zk_orion.Fri
module Transcript = Zk_hash.Transcript
module Rng = Zk_util.Rng
module Fv = Nocap_vec.Fv
module Keccak = Zk_hash.Keccak
module Merkle = Zk_merkle.Merkle
module Spill = Nocap_vec.Spill
module E = Zk_pcs.Verify_error
module Fri_oracle = Fri_pcs_oracle

let params = Fri.default_params

let prove_poly ~seed n =
  let rng = Rng.create seed in
  let coeffs = Array.init n (fun _ -> Gf.random rng) in
  let t = Transcript.create "fri-test" in
  (coeffs, Fri.prove params t coeffs)

let verify ~degree_bound proof =
  let t = Transcript.create "fri-test" in
  Fri.verify params t ~degree_bound proof

let test_completeness () =
  List.iter
    (fun n ->
      let _, proof = prove_poly ~seed:(Int64.of_int (700 + n)) n in
      match verify ~degree_bound:n proof with
      | Ok () -> ()
      | Error e -> Alcotest.failf "n=%d: %s" n (E.to_string e))
    [ 1; 2; 8; 64; 256; 1024 ]

let test_constant_poly () =
  let t = Transcript.create "fri-test" in
  let proof = Fri.prove params t [| Gf.of_int 7; Gf.zero; Gf.zero; Gf.zero |] in
  (match verify ~degree_bound:4 proof with
  | Ok () -> ()
  | Error e -> Alcotest.failf "constant: %s" (E.to_string e));
  Alcotest.(check bool) "constant recovered" true
    (Gf.equal proof.Fri.final_constant (Gf.of_int 7))

let test_degree_cheat_rejected () =
  (* A degree-2n polynomial committed against a degree-n bound: forge by
     proving at the larger bound and verifying at the smaller one. *)
  let n = 64 in
  let _, proof = prove_poly ~seed:701L (2 * n) in
  match verify ~degree_bound:n proof with
  | Ok () -> Alcotest.fail "accepted an out-of-degree polynomial"
  | Error _ -> ()

let test_tampered_constant_rejected () =
  let _, proof = prove_poly ~seed:702L 128 in
  let bad = { proof with Fri.final_constant = Gf.add proof.Fri.final_constant Gf.one } in
  match verify ~degree_bound:128 bad with
  | Ok () -> Alcotest.fail "accepted a tampered constant"
  | Error _ -> ()

let test_tampered_layer_rejected () =
  let _, proof = prove_poly ~seed:703L 128 in
  (* Query 3's even value at layer 1: every query opens all 8 layers. *)
  let pairs = proof.Fri.queries.Fri.pairs in
  let k = 2 * ((3 * 8) + 1) in
  Fv.set pairs k (Gf.add (Fv.get pairs k) Gf.one);
  (* The changed value changes its leaf, so the path check fails first and
     the error carries its reason. *)
  match verify ~degree_bound:128 proof with
  | Ok () -> Alcotest.fail "accepted a tampered opening"
  | Error e ->
    Alcotest.(check string) "reason" "merkle_mismatch: query 3 layer 1: root mismatch"
      (E.to_string e)

let test_wrong_transcript_rejected () =
  let _, proof = prove_poly ~seed:704L 64 in
  let t = Transcript.create "some-other-domain" in
  match Fri.verify params t ~degree_bound:64 proof with
  | Ok () -> Alcotest.fail "accepted under divergent challenges"
  | Error _ -> ()

let test_proof_size () =
  let _, proof = prove_poly ~seed:705L 1024 in
  let sz = Fri.proof_size_bytes proof in
  (* Logarithmic layers x 30 queries x (pair + path): tens of KB, far below
     the committed 4096-point table. *)
  Alcotest.(check bool) (Printf.sprintf "size %d plausible" sz) true
    (sz > 10_000 && sz < 400_000)

let prop_random_sizes =
  QCheck.Test.make ~count:10 ~name:"FRI roundtrip at random sizes"
    QCheck.(int_range 0 7)
    (fun log_n ->
      let n = 1 lsl log_n in
      let _, proof = prove_poly ~seed:(Int64.of_int (800 + log_n)) n in
      match verify ~degree_bound:n proof with Ok () -> true | Error _ -> false)

(* The pre-running-product fold, one inversion per element: the oracle
   for {!Fri.fold_layer}'s inversion-free twiddles. *)
let reference_fold ~shift evals beta =
  let n = Array.length evals in
  let half = n / 2 in
  let rec log2 k = if k = 1 then 0 else 1 + log2 (k / 2) in
  let w = Gf.root_of_unity (log2 n) in
  let inv2 = Gf.inv Gf.two in
  let x = ref shift in
  Array.init half (fun j ->
      let a = evals.(j) and b = evals.(j + half) in
      let even = Gf.mul inv2 (Gf.add a b) in
      let odd = Gf.mul inv2 (Gf.mul (Gf.sub a b) (Gf.inv !x)) in
      let out = Gf.add even (Gf.mul beta odd) in
      x := Gf.mul !x w;
      out)

(* The layer step on a RAM layer folded as one block and on a spilled
   layer (into a spilled output) folded and committed in blocks smaller
   than half: both outputs are the reference fold, and both trees have one
   root. The smallest layer is 4 points: a committed layer needs a leaf,
   so the step never folds into one point. *)
let prop_fold_vs_reference =
  QCheck.Test.make ~count:60
    ~name:"Fri.fold_layer = per-element-inverse fold (plain and coset, RAM and spilled)"
    QCheck.(triple (int_range 2 12) bool (int_range 0 1_000_000))
    (fun (log_n, coset, seed) ->
      let rng = Rng.create (Int64.of_int seed) in
      let n = 1 lsl log_n in
      let evals = Array.init n (fun _ -> Gf.random rng) in
      let beta = Gf.random rng in
      let shift = if coset then Gf.multiplicative_generator else Gf.one in
      let want = reference_fold ~shift evals beta in
      let ram = Spill.of_fv (Fv.create (n / 2)) in
      let ram_root =
        Merkle.root (Fri.fold_layer ~shift ~budget:None (Spill.of_fv (Fv.of_array evals)) beta ~dst:ram)
      in
      let layer = Spill.create ~tag:"fri-test" ~spill:true n in
      let dst = Spill.create ~tag:"fri-test" ~spill:true (n / 2) in
      Fun.protect
        ~finally:(fun () ->
          Spill.free layer;
          Spill.free dst)
        (fun () ->
          Spill.write layer ~pos:0 (Fv.of_array evals);
          (* 48 bytes a block row: a fold block of that many rows, and a
             commit block of half as many. *)
          let budget = Some (48 * (1 + Rng.int rng (max 1 ((n / 4) - 1)))) in
          let spilled_root = Merkle.root (Fri.fold_layer ~shift ~budget layer beta ~dst) in
          Fv.to_array (Spill.as_fv ram) = want
          && Fv.to_array (Spill.to_fv dst) = want
          && String.equal ram_root spilled_root))

(* The bytes of a proof, in one fixed order: layer roots, the final
   constant, then query by query its position and, layer by layer, the
   opened pair and path. Its SHA3 pins the prover's output. *)
let fingerprint_into buf (p : Fri.proof) =
  let gf x = Buffer.add_int64_le buf (Gf.to_int64 x) in
  Array.iter (Buffer.add_string buf) p.Fri.layer_roots;
  gf p.Fri.final_constant;
  let q = p.Fri.queries in
  let k = ref 0 and d = ref 0 in
  Array.iteri
    (fun i position ->
      Buffer.add_int64_le buf (Int64.of_int position);
      for _ = 1 to q.Fri.layer_count.(i) do
        gf (Fv.get q.Fri.pairs (2 * !k));
        gf (Fv.get q.Fri.pairs ((2 * !k) + 1));
        for _ = 1 to q.Fri.path_len.(!k) do
          Buffer.add_string buf (Keccak.digest_at q.Fri.paths !d);
          incr d
        done;
        incr k
      done)
    q.Fri.positions

let fingerprint p =
  let buf = Buffer.create 65536 in
  fingerprint_into buf p;
  Keccak.to_hex (Keccak.sha3_256_string (Buffer.contents buf))

(* A fixed-seed proof at n = 256, on the plain subgroup and on the coset
   Stark uses: the hash and size of each are pinned. *)
let test_golden () =
  List.iter
    (fun (label, shift, want, want_size) ->
      let rng = Rng.create 2701L in
      let coeffs = Array.init 256 (fun _ -> Gf.random rng) in
      let proof = Fri.prove ~shift params (Transcript.create "fri-golden") coeffs in
      Alcotest.(check string) (label ^ " proof hash") want (fingerprint proof);
      Alcotest.(check int) (label ^ " proof size") want_size (Fri.proof_size_bytes proof);
      match Fri.verify ~shift params (Transcript.create "fri-golden") ~degree_bound:256 proof with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" label (E.to_string e))
    [
      ("plain", Gf.one, "84590d48d3c571bbcdc54eca9afdfac61d9afe9fd8d954ef98af68425f7aa04a", 48056);
      ("coset", Gf.multiplicative_generator, "03775c7e295bebf853e02835a11ecffd5d599ab464665267bd01bf4219d6537e", 48056);
    ]

let coset = Gf.multiplicative_generator

(* Coset proofs, the shape Stark proves, from one layer to nine. *)
let coset_proofs =
  lazy
    (List.map
       (fun (blowup_log2, num_queries, n, seed) ->
         let params = { Fri.blowup_log2; num_queries } in
         let rng = Rng.create seed in
         let coeffs = Array.init n (fun _ -> Gf.random rng) in
         (params, n, Fri.prove ~shift:coset params (Transcript.create "fri-oracle") coeffs))
       [ (2, 3, 1, 90L); (1, 5, 4, 91L); (2, 8, 16, 92L); (3, 12, 64, 93L); (2, 30, 256, 94L) ])

(* Edits on the tuple form, so any shape can be written: (kind, query, a,
   b). Kinds: position, pair element, path digest, drop a path digest, add
   one, drop or add a layer, drop the last query. *)
let edit_queries queries (kind, q, a, b) =
  let nq = Array.length queries in
  if nq = 0 then queries
  else begin
    let queries = Array.copy queries in
    let q = q mod nq in
    let position, opened = queries.(q) in
    let opened = Array.copy opened in
    let bump x = Gf.add x (Gf.of_int (1 + (b mod 1000))) in
    let flip d =
      let s = Bytes.of_string d in
      let i = b mod 32 in
      Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor (1 + (a mod 255))));
      Bytes.to_string s
    in
    let layer f =
      if Array.length opened > 0 then begin
        let i = a mod Array.length opened in
        opened.(i) <- f opened.(i)
      end;
      (position, opened)
    in
    let with_path f = layer (fun (x, y, path) -> (x, y, f path)) in
    let at path = b mod max 1 (List.length path) in
    let digest = Keccak.sha3_256_string (string_of_int b) in
    let edited =
      match kind mod 8 with
      | 0 -> (position lxor (1 + (a mod 4)), opened)
      | 1 -> layer (fun (x, y, path) -> if b land 1 = 0 then (bump x, y, path) else (x, bump y, path))
      | 2 -> with_path (fun path -> List.mapi (fun d x -> if d = at path then flip x else x) path)
      | 3 -> with_path (fun path -> List.filteri (fun d _ -> d <> at path) path)
      | 4 -> with_path (fun path -> digest :: path)
      | 5 when b land 1 = 0 && Array.length opened > 0 ->
        (position, Array.sub opened 0 (Array.length opened - 1))
      | 5 -> (position, Array.append opened [| (Gf.of_int a, Gf.of_int b, []) |])
      | 6 -> (position, opened)
      | _ -> (position, Array.map (fun (x, y, path) -> (y, x, path)) opened)
    in
    queries.(q) <- edited;
    if kind mod 8 = 6 then Array.sub queries 0 (nq - 1) else queries
  end

let show = function Ok () -> "Ok" | Error e -> E.to_string e

(* The batched {!Fri.verify} against the query-at-a-time walk on the
   same edited coset proof, verdict for verdict. *)
let prop_fri_verify_vs_walk (leg : Test_native.leg) ~count =
  QCheck.Test.make ~count
    ~name:(Printf.sprintf "Fri.verify on coset proofs = query-at-a-time walk (%s)" leg.name)
    QCheck.(
      pair small_nat
        (list_of_size (Gen.int_range 0 3)
           (quad small_nat small_nat (int_bound 10_000) (int_bound 10_000))))
    (fun (which, edits) ->
      let proofs = Lazy.force coset_proofs in
      let params, n, proof = List.nth proofs (which mod List.length proofs) in
      let tuples =
        List.fold_left edit_queries (Fri_oracle.tuples_of_flat proof.Fri.queries) edits
      in
      let edited = { proof with Fri.queries = Fri_oracle.flat_of_tuples tuples } in
      let transcript () = Transcript.create "fri-oracle" in
      let got, want =
        leg.run (fun () ->
            ( show (Fri.verify ~shift:coset params (transcript ()) ~degree_bound:n edited),
              show
                (Fri_oracle.fri_verify ~shift:coset params (transcript ()) ~degree_bound:n
                   ~layer_roots:proof.Fri.layer_roots ~final_constant:proof.Fri.final_constant
                   tuples) ))
      in
      if got <> want then QCheck.Test.fail_reportf "batched %s, walk %s" got want;
      edits <> [] || got = "Ok")

let suite =
  [
    Alcotest.test_case "golden proof at n = 256" `Quick test_golden;
    Alcotest.test_case "completeness" `Quick test_completeness;
    Alcotest.test_case "constant polynomial" `Quick test_constant_poly;
    Alcotest.test_case "degree cheat rejected" `Quick test_degree_cheat_rejected;
    Alcotest.test_case "tampered constant rejected" `Quick test_tampered_constant_rejected;
    Alcotest.test_case "tampered layer rejected" `Quick test_tampered_layer_rejected;
    Alcotest.test_case "wrong transcript rejected" `Quick test_wrong_transcript_rejected;
    Alcotest.test_case "proof size" `Quick test_proof_size;
    QCheck_alcotest.to_alcotest prop_random_sizes;
    QCheck_alcotest.to_alcotest prop_fold_vs_reference;
  ]
  @ List.map
      (fun leg -> QCheck_alcotest.to_alcotest (prop_fri_verify_vs_walk leg ~count:150))
      Test_native.legs
