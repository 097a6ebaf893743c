(* The backend-pluggable proving engine: PCS interface conformance on both
   backends, golden proof bytes for both backends across domain counts,
   engine-context invariance, the tagged serialization format, and the
   Engine.Config environment parsing. *)

module Gf = Zk_field.Gf
module Rng = Zk_util.Rng
module Keccak = Zk_hash.Keccak
module Transcript = Zk_hash.Transcript
module Mle = Zk_poly.Mle
module Pool = Nocap_parallel.Pool
module Fv = Nocap_vec.Fv
module R1cs = Zk_r1cs.R1cs
module Engine = Zk_pcs.Engine
module Orion = Zk_orion.Orion
module Orion_pcs = Zk_orion.Orion_pcs
module Fri_pcs = Zk_orion.Fri_pcs
module Spartan = Zk_spartan.Spartan
module Synthetic = Zk_workloads.Synthetic

(* Spartan over the second backend — the whole point of the functor. *)
module Spartan_fri = Zk_spartan.Spartan.Make (Zk_orion.Fri_pcs)

(* --- golden proof bytes: the refactor must not move a single byte of the
   default backend's proofs, under any domain count --- *)

(* sha3 over the payload after the 9-byte header (8-byte magic + tag); the
   hashes were captured from the pre-functor prover over the payload after
   its 8-byte magic — the payload layout is identical. *)
let payload_hash bytes =
  Keccak.to_hex (Keccak.sha3_256 (Bytes.sub bytes 9 (Bytes.length bytes - 9)))

let golden_cases =
  [
    ( "synthetic-300", 300, 44L, Spartan.test_params,
      "77c06dcebb8dad099ac760432defa22571690d8d0216f9a6309133e3191871eb" );
    ( "synthetic-2000", 2000, 42L, Spartan.test_params,
      "3eb5515232a2c1cf92911c038b73d06d9cfe5eff8289aa23a94440cc0de78afe" );
    ( "synthetic-500-r128", 500, 43L,
      { Spartan.pcs = Orion.default_params; repetitions = 2 },
      "26b9a4d0a445c7e4aa346b7179d96fb4fc30d0051fd97d90a6a7b35803667363" );
  ]

let test_golden_bytes () =
  List.iter
    (fun (name, n, seed, params, expected) ->
      let inst, asn = Synthetic.circuit ~n_constraints:n ~seed () in
      let check label run =
        let bytes = run (fun () -> Spartan.proof_to_bytes (fst (Spartan.prove params inst asn))) in
        Alcotest.(check string) (name ^ " " ^ label) expected (payload_hash bytes);
        (* The flat decoder and writer give back the same bytes. *)
        match Spartan.proof_of_bytes bytes with
        | Ok p ->
          Alcotest.(check bool) (name ^ " re-encodes " ^ label) true
            (Bytes.equal bytes (Spartan.proof_to_bytes p))
        | Error e -> Alcotest.failf "%s: decode failed: %s" name (Zk_pcs.Verify_error.to_string e)
      in
      List.iter
        (fun d -> check (Printf.sprintf "at %d domains" d) (Pool.with_domains d))
        [ 1; 2; 3 ];
      check "with scalar C kernels" Nocap_native.Native.with_scalar_c;
      check "with the AVX2 tier only" Nocap_native.Native.with_avx2_only)
    golden_cases

(* FRI-backend proofs at [test_params], pinned the same way: the fold,
   leaf-hash and Keccak kernels under the second backend must not move a
   byte either. *)
let fri_golden_cases =
  [
    ("fri-synthetic-300", 300, 44L, "78571a8866385df599ad54e5413cfa06837ccc1e765ebbf655d9d5c0f3d82023");
    ( "fri-synthetic-2000", 2000, 42L,
      "bd7e89dccd6a7c76784b06fca6c808cabc2d38fabee2bb160cf798ea1e0bb670" );
  ]

let test_fri_golden_bytes () =
  List.iter
    (fun (name, n, seed, expected) ->
      let inst, asn = Synthetic.circuit ~n_constraints:n ~seed () in
      let check label run =
        let proof, _ = run (fun () -> Spartan_fri.prove Spartan_fri.test_params inst asn) in
        Alcotest.(check string) (name ^ " " ^ label) expected
          (payload_hash (Spartan_fri.proof_to_bytes proof))
      in
      List.iter
        (fun d -> check (Printf.sprintf "at %d domains" d) (Pool.with_domains d))
        [ 1; 2; 3 ];
      (* The portable scalar C bodies produce the same bytes. *)
      check "with scalar C kernels" Nocap_native.Native.with_scalar_c;
      (* The 4-lane Merkle kernels, also on an AVX-512F host. *)
      check "with the AVX2 tier only" Nocap_native.Native.with_avx2_only)
    fri_golden_cases

(* --- engine-context invariance: an explicit engine and the pool size
   never change bytes --- *)

let test_engine_invariance () =
  let inst, asn = Synthetic.circuit ~n_constraints:250 ~seed:91L () in
  let baseline, _ = Spartan.prove Spartan.test_params inst asn in
  let baseline_bytes = Spartan.proof_to_bytes baseline in
  let engine = Engine.create () in
  let proof, _ = Spartan.prove ~engine Spartan.test_params inst asn in
  Alcotest.(check bool)
    "explicit engine produces identical bytes" true
    (Bytes.equal baseline_bytes (Spartan.proof_to_bytes proof));
  Pool.with_domains 2 (fun () ->
      let engine = Engine.create () in
      let p2, _ = Spartan.prove ~engine Spartan.test_params inst asn in
      Alcotest.(check bool)
        "engine under with_domains produces identical bytes" true
        (Bytes.equal baseline_bytes (Spartan.proof_to_bytes p2)))

(* --- both backends prove and verify through the same functor --- *)

module Check_backend (S : Zk_spartan.Spartan.S) = struct
  let run name ~n ~seed =
    let inst, asn = Synthetic.circuit ~n_constraints:n ~seed () in
    let io = R1cs.public_io inst asn in
    let proof, _ = S.prove S.test_params inst asn in
    (match S.verify S.test_params inst ~io proof with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: valid proof rejected: %s" name (Zk_pcs.Verify_error.to_string e));
    (* Tampered io must fail. *)
    let bad_io = Array.copy io in
    bad_io.(Array.length bad_io - 1) <-
      Gf.add bad_io.(Array.length bad_io - 1) Gf.one;
    match S.verify S.test_params inst ~io:bad_io proof with
    | Ok () -> Alcotest.failf "%s: accepted tampered io" name
    | Error _ -> ()
end

module Check_orion = Check_backend (Spartan)
module Check_fri = Check_backend (Spartan_fri)

let test_orion_backend_e2e () = Check_orion.run "spartan-orion" ~n:300 ~seed:17L
let test_fri_backend_e2e () = Check_fri.run "spartan-fri" ~n:300 ~seed:17L

let prop_cross_backend_random_circuits =
  QCheck.Test.make ~count:8 ~name:"both backends prove random circuits"
    QCheck.(pair (int_range 30 200) (int_range 0 1000))
    (fun (n, seed) ->
      let seed = Int64.of_int seed in
      let inst, asn = Synthetic.circuit ~n_constraints:n ~seed () in
      let io = R1cs.public_io inst asn in
      let po, _ = Spartan.prove Spartan.test_params inst asn in
      let pf, _ = Spartan_fri.prove Spartan_fri.test_params inst asn in
      Result.is_ok (Spartan.verify Spartan.test_params inst ~io po)
      && Result.is_ok (Spartan_fri.verify Spartan_fri.test_params inst ~io pf))

(* --- the FRI backend directly against the PCS contract --- *)

let test_fri_pcs_direct () =
  let rng = Rng.create 0xF121L in
  let num_vars = 6 in
  let evals = Array.init (1 lsl num_vars) (fun _ -> Gf.random rng) in
  let point = Array.init num_vars (fun _ -> Gf.random rng) in
  let params = Fri_pcs.test_params in
  let committed, cm = Fri_pcs.commit params (Rng.create 1L) (Fv.of_array evals) in
  let transcript () =
    let t = Transcript.create "test-fri-pcs" in
    Fri_pcs.absorb_commitment t cm;
    t
  in
  let value, proof = Fri_pcs.open_at params committed (transcript ()) point in
  Alcotest.(check bool)
    "opened value is the MLE evaluation" true
    (Gf.equal value (Mle_oracle.eval evals point));
  (match Fri_pcs.verify params cm (transcript ()) point value proof with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid opening rejected: %s" (Zk_pcs.Verify_error.to_string e));
  (* Wrong value must fail. *)
  (match
     Fri_pcs.verify params cm (transcript ()) point (Gf.add value Gf.one) proof
   with
  | Ok () -> Alcotest.fail "accepted a wrong value"
  | Error _ -> ());
  (* Byte round-trip of commitment and proof. *)
  let buf = Buffer.create 256 in
  Fri_pcs.write_commitment buf cm;
  Fri_pcs.write_eval_proof buf proof;
  let r = Zk_pcs.Codec.reader (Buffer.to_bytes buf) in
  match (Fri_pcs.read_commitment r, Fri_pcs.read_eval_proof r) with
  | Ok cm', Ok proof' -> (
    match Fri_pcs.verify params cm' (transcript ()) point value proof' with
    | Ok () -> ()
    | Error e -> Alcotest.failf "round-tripped opening rejected: %s" (Zk_pcs.Verify_error.to_string e))
  | Error e, _ | _, Error e -> Alcotest.failf "round-trip decode failed: %s" (Zk_pcs.Verify_error.to_string e)

let test_fri_pcs_degenerate () =
  (* A 1-variable polynomial: no sumcheck rounds on the witness of a tiny
     circuit is exercised above; here the PCS alone at L=1. *)
  let evals = [| Gf.of_int64 5L; Gf.of_int64 9L |] in
  let point = [| Gf.of_int64 42L |] in
  let params = Fri_pcs.test_params in
  let committed, cm = Fri_pcs.commit params (Rng.create 1L) (Fv.of_array evals) in
  let transcript () =
    let t = Transcript.create "test-fri-tiny" in
    Fri_pcs.absorb_commitment t cm;
    t
  in
  let value, proof = Fri_pcs.open_at params committed (transcript ()) point in
  Alcotest.(check bool)
    "L=1 value" true
    (Gf.equal value (Mle_oracle.eval evals point));
  match Fri_pcs.verify params cm (transcript ()) point value proof with
  | Ok () -> ()
  | Error e -> Alcotest.failf "L=1 opening rejected: %s" (Zk_pcs.Verify_error.to_string e)

(* --- tagged serialization: round-trips, backend mismatch, unknown tag,
   legacy blobs --- *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_serialize_tagged () =
  let inst, asn = Synthetic.circuit ~n_constraints:200 ~seed:7L () in
  let io = R1cs.public_io inst asn in
  let orion_proof, _ = Spartan.prove Spartan.test_params inst asn in
  let ob = Spartan.proof_to_bytes orion_proof in
  let fri_proof, _ = Spartan_fri.prove Spartan_fri.test_params inst asn in
  let fb = Spartan_fri.proof_to_bytes fri_proof in
  (* Header sniffing. *)
  Alcotest.(check (result string string))
    "orion tag" (Ok "orion") (Result.map_error Zk_pcs.Verify_error.to_string (Spartan.backend_of_bytes ob));
  Alcotest.(check (result string string))
    "fri tag" (Ok "fri") (Result.map_error Zk_pcs.Verify_error.to_string (Spartan.backend_of_bytes fb));
  (* Round-trips through each backend's own codec. *)
  (match Spartan.proof_of_bytes ob with
  | Error e -> Alcotest.failf "orion round-trip failed: %s" (Zk_pcs.Verify_error.to_string e)
  | Ok p -> (
    match Spartan.verify Spartan.test_params inst ~io p with
    | Ok () -> ()
    | Error e -> Alcotest.failf "decoded orion proof rejected: %s" (Zk_pcs.Verify_error.to_string e)));
  (match Spartan_fri.proof_of_bytes fb with
  | Error e -> Alcotest.failf "fri round-trip failed: %s" (Zk_pcs.Verify_error.to_string e)
  | Ok p -> (
    match Spartan_fri.verify Spartan_fri.test_params inst ~io p with
    | Ok () -> ()
    | Error e -> Alcotest.failf "decoded fri proof rejected: %s" (Zk_pcs.Verify_error.to_string e)));
  (* A FRI blob fed to the Orion decoder is an error naming both backends,
     not a crash or a misparse. *)
  (match Spartan.proof_of_bytes fb with
  | Ok _ -> Alcotest.fail "orion decoder accepted a fri blob"
  | Error e ->
    let e = Zk_pcs.Verify_error.to_string e in
    Alcotest.(check bool)
      (Printf.sprintf "mismatch error mentions fri: %s" e)
      true (contains ~sub:"fri" e));
  (* Unknown tag byte. *)
  let unknown = Bytes.copy ob in
  Bytes.set unknown 8 '\xee';
  (match Spartan.proof_of_bytes unknown with
  | Ok _ -> Alcotest.fail "accepted unknown backend tag"
  | Error e ->
    Alcotest.(check bool)
      "unknown-tag error mentions the tag" true (contains ~sub:"0xee" (Zk_pcs.Verify_error.to_string e)));
  Alcotest.(check bool)
    "backend_of_bytes rejects unknown tag" true
    (Result.is_error (Spartan.backend_of_bytes unknown));
  (* Legacy NCAP1 blob: friendly error, and the sniffer still names orion. *)
  let legacy = Bytes.copy ob in
  Bytes.blit_string "NCAP1" 0 legacy 0 5;
  (match Spartan.proof_of_bytes legacy with
  | Ok _ -> Alcotest.fail "accepted legacy blob"
  | Error e ->
    Alcotest.(check bool)
      "legacy error mentions NCAP1" true (contains ~sub:"NCAP1" (Zk_pcs.Verify_error.to_string e)));
  Alcotest.(check (result string string))
    "legacy sniffs as orion" (Ok "orion")
    (Result.map_error Zk_pcs.Verify_error.to_string (Spartan.backend_of_bytes legacy))

(* --- Orion parameter validation --- *)

let test_orion_param_validation () =
  (match Orion.validate_params Orion.default_params with
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "default params rejected: %s" (Orion.param_error_to_string e));
  let bad_rows = { Orion.default_params with Orion.rows = 12 } in
  (match Orion.validate_params bad_rows with
  | Error (Orion.Rows_not_power_of_two 12) -> ()
  | Error e ->
    Alcotest.failf "wrong error for rows=12: %s" (Orion.param_error_to_string e)
  | Ok () -> Alcotest.fail "accepted rows=12");
  (match Orion.validate_params { Orion.default_params with Orion.rows = 0 } with
  | Error (Orion.Rows_not_positive 0) -> ()
  | Error e ->
    Alcotest.failf "wrong error for rows=0: %s" (Orion.param_error_to_string e)
  | Ok () -> Alcotest.fail "accepted rows=0");
  (match
     Orion.validate_params
       { Orion.default_params with Orion.proximity_count = 0 }
   with
  | Error (Orion.Proximity_count_not_positive 0) -> ()
  | Error e ->
    Alcotest.failf "wrong error for proximity=0: %s"
      (Orion.param_error_to_string e)
  | Ok () -> Alcotest.fail "accepted proximity_count=0");
  (* Invalid params are rejected at commit time, loudly. *)
  let evals = Array.init 64 (fun i -> Gf.of_int i) in
  match Orion.commit bad_rows (Rng.create 1L) (Fv.of_array evals) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "commit accepted invalid params"

let test_fri_param_validation () =
  (match Fri_pcs.validate_params Fri_pcs.default_params with
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "default fri params rejected: %s"
      (Fri_pcs.param_error_to_string e));
  (match Fri_pcs.validate_params { Fri_pcs.blowup_log2 = 0; num_queries = 4 } with
  | Error (Fri_pcs.Blowup_out_of_range 0) -> ()
  | _ -> Alcotest.fail "accepted blowup_log2=0");
  match Fri_pcs.validate_params { Fri_pcs.blowup_log2 = 2; num_queries = 0 } with
  | Error (Fri_pcs.Queries_not_positive 0) -> ()
  | _ -> Alcotest.fail "accepted num_queries=0"

(* --- Engine.Config parsing --- *)

let test_engine_config () =
  let lookup env k = List.assoc_opt k env in
  (match Engine.Config.parse ~lookup:(lookup []) with
  | Ok c -> Alcotest.(check bool) "empty env is default" true (c = Engine.Config.default)
  | Error e -> Alcotest.failf "empty env rejected: %s" e);
  (match
     Engine.Config.parse
       ~lookup:
         (lookup
            [
              ("NOCAP_DOMAINS", "3");
              ("NOCAP_STREAM_BUDGET_MB", "256");
            ])
   with
  | Ok { Engine.Config.domains = Some 3; stream_budget_mb = Some 256 } -> ()
  | Ok _ -> Alcotest.fail "parsed values wrong"
  | Error e -> Alcotest.failf "valid env rejected: %s" e);
  List.iter
    (fun v ->
      match Engine.Config.parse ~lookup:(lookup [ ("NOCAP_DOMAINS", v) ]) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted NOCAP_DOMAINS=%s" v)
    [ "zero"; "-2"; "0"; "" ];
  (match Engine.Config.parse ~lookup:(lookup [ ("NOCAP_STREAM_BUDGET_MB", "1.5") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted fractional NOCAP_STREAM_BUDGET_MB")

(* --- flat codec: get_fv is get_gf_array, error for error --- *)

module Codec = Zk_pcs.Codec

let decode_with get data =
  let r = Codec.reader data in
  match get r with
  | Ok v -> Ok (v, Codec.pos r)
  | Error e -> Error (Zk_pcs.Verify_error.to_string e)

let boxed_decode = decode_with Codec_oracle.get_gf_array
let flat_decode = decode_with (fun r -> Result.map Fv.to_array (Codec.get_fv r))

let test_codec_fv () =
  let rng = Rng.create 5L in
  let same label data =
    Alcotest.(check (result (pair (array int64) int) string))
      label (boxed_decode data) (flat_decode data)
  in
  List.iter
    (fun n ->
      let a = Array.init n (fun _ -> Gf.random rng) in
      let boxed = Buffer.create 16 and flat = Buffer.create 16 in
      Codec.put_gf_array boxed a;
      Codec.put_fv flat (Fv.of_array a);
      Alcotest.(check string) "put_fv = put_gf_array" (Buffer.contents boxed)
        (Buffer.contents flat);
      let data = Buffer.to_bytes flat in
      Alcotest.(check (result (pair (array int64) int) string))
        "round trip" (Ok (a, Bytes.length data)) (flat_decode data);
      (* Every truncation. *)
      for cut = 0 to Bytes.length data - 1 do
        same (Printf.sprintf "n=%d cut at %d" n cut) (Bytes.sub data 0 cut)
      done;
      (* A non-canonical word at each position, and a second one after it:
         the first is reported. *)
      for k = 0 to n - 1 do
        let bad = Bytes.copy data in
        Bytes.set_int64_le bad (8 + (8 * k)) (Int64.add Gf.p (Int64.of_int k));
        if k + 1 < n then Bytes.set_int64_le bad (8 + (8 * (k + 1))) (-1L);
        same (Printf.sprintf "n=%d non-canonical at %d" n k) bad
      done)
    [ 0; 1; 5; 17 ];
  (* Length fields above max_len, and negative as a signed word. *)
  List.iter
    (fun len ->
      let b = Bytes.make 64 '\000' in
      Bytes.set_int64_le b 0 len;
      same (Printf.sprintf "length %Ld" len) b)
    [ Int64.of_int (Codec.max_len + 1); Int64.max_int; -1L; 7L; 8L ]

let test_codec_digest_lanes () =
  let rng = Rng.create 6L in
  let digests =
    Array.init 5 (fun i -> Keccak.sha3_256_string (string_of_int (i + Rng.int rng 99)))
  in
  let lanes = Fv.create 20 in
  Array.iteri (Keccak.set_digest lanes) digests;
  let boxed = Buffer.create 16 and flat = Buffer.create 16 in
  Array.iter (Codec.put_digest boxed) digests;
  Codec.put_digest_lanes flat lanes;
  Alcotest.(check string) "put_digest_lanes = put_digest" (Buffer.contents boxed)
    (Buffer.contents flat);
  let data = Buffer.to_bytes flat in
  for cut = 0 to Bytes.length data do
    let part = Bytes.sub data 0 cut in
    let boxed =
      decode_with
        (fun r ->
          let rec go i acc =
            if i = 5 then Ok (List.rev acc)
            else Result.bind (Codec.get_digest r) (fun d -> go (i + 1) (d :: acc))
          in
          go 0 [])
        part
    in
    let flat =
      decode_with
        (fun r ->
          let dst = Fv.create 20 in
          Result.map
            (fun () -> List.init 5 (Keccak.digest_at dst))
            (Codec.get_digest_lanes_into r ~count:5 dst ~pos:0))
        part
    in
    Alcotest.(check (result (pair (list string) int) string))
      (Printf.sprintf "digests cut at %d" cut) boxed flat
  done

(* --- flat FRI openings against the tuple oracle --- *)

module Fri_oracle = Fri_pcs_oracle
module Spartan_fri_oracle = Zk_spartan.Spartan.Make (Fri_pcs_oracle)
module Mutate = Nocap_faults.Mutate
module Fuzz = Nocap_faults.Fuzz
module Targets = Nocap_faults.Targets

let fri_transcript cm =
  let t = Transcript.create "fri-oracle" in
  Fri_pcs.absorb_commitment t cm;
  t

(* Honest openings: test params at a few sizes (l = 0 has no fold round),
   blowup 2^1 (its last tree is one leaf, paths of length 0), and the
   default 30 queries on 2^8 and 2^10 tables. *)
let fri_openings =
  lazy
    (List.map
       (fun (params, l, seed) ->
         let rng = Rng.create seed in
         let table = Fv.of_array (Array.init (1 lsl l) (fun _ -> Gf.random rng)) in
         let committed, cm = Fri_pcs.commit params rng table in
         let point = Array.init l (fun _ -> Gf.random rng) in
         let value, proof = Fri_pcs.open_at params committed (fri_transcript cm) point in
         (params, cm, point, value, proof))
       [
         (Fri_pcs.test_params, 0, 80L);
         (Fri_pcs.test_params, 4, 81L);
         (Fri_pcs.test_params, 6, 82L);
         ({ Fri_pcs.blowup_log2 = 1; num_queries = 5 }, 3, 83L);
         (Fri_pcs.default_params, 8, 84L);
         (Fri_pcs.default_params, 10, 85L);
       ])

let show = function Ok () -> "Ok" | Error e -> Zk_pcs.Verify_error.to_string e

(* Decode + verify with the flat backend and with the oracle, both from
   the same bytes. A flat decode must also write back the bytes it read. *)
let fri_verdicts (params, cm, point, value) data =
  let flat =
    let r = Zk_pcs.Codec.reader data in
    match Fri_pcs.read_eval_proof r with
    | Error e -> Error e
    | Ok p ->
      let buf = Buffer.create (Bytes.length data) in
      Fri_pcs.write_eval_proof buf p;
      let read = Bytes.sub_string data 0 (Zk_pcs.Codec.pos r) in
      if not (String.equal (Buffer.contents buf) read) then
        Alcotest.fail "flat writer changed the bytes it decoded";
      Fri_pcs.verify params cm (fri_transcript cm) point value p
  in
  let oracle =
    Result.bind
      (Fri_oracle.read_eval_proof (Zk_pcs.Codec.reader data))
      (Fri_oracle.verify params cm (fri_transcript cm) point value)
  in
  (show flat, show oracle)

(* Edits on the tuple form, so any shape can be written: (kind, query, a,
   b). Kinds: position, pair element, path digest, drop a path digest, add
   one, a path past the 62-digest limit, drop or add a layer, round
   polynomial, layer root, final constant. *)
let edit_opening (p : Fri_oracle.eval_proof) (kind, q, a, b) =
  let bump x = Gf.add x (Gf.of_int (1 + (b mod 1000))) in
  let queries = Array.copy p.Fri_oracle.queries in
  let nq = Array.length queries in
  let with_query f =
    if nq = 0 then p
    else begin
      let q = q mod nq in
      let position, opened = queries.(q) in
      queries.(q) <- f position (Array.copy opened);
      { p with Fri_oracle.queries }
    end
  in
  let with_layer f =
    with_query (fun position opened ->
        if Array.length opened > 0 then begin
          let i = a mod Array.length opened in
          opened.(i) <- f opened.(i)
        end;
        (position, opened))
  in
  let flip d =
    let s = Bytes.of_string d in
    let i = b mod 32 in
    Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor (1 + (a mod 255))));
    Bytes.to_string s
  in
  let with_path f = with_layer (fun (x, y, path) -> (x, y, f path)) in
  let at path = b mod max 1 (List.length path) in
  let digest = Keccak.sha3_256_string (string_of_int b) in
  match kind mod 10 with
  | 0 -> with_query (fun position opened -> (position lxor (1 + (a mod 4)), opened))
  | 1 ->
    with_layer (fun (x, y, path) ->
        if b land 1 = 0 then (bump x, y, path) else (x, bump y, path))
  | 2 -> with_path (fun path -> List.mapi (fun d x -> if d = at path then flip x else x) path)
  | 3 -> with_path (fun path -> List.filteri (fun d _ -> d <> at path) path)
  | 4 -> with_path (fun path -> digest :: path)
  | 5 -> with_path (fun path -> List.init (60 + (b mod 8)) (fun _ -> digest) @ path)
  | 6 ->
    with_query (fun position opened ->
        if b land 1 = 0 && Array.length opened > 0 then
          (position, Array.sub opened 0 (Array.length opened - 1))
        else (position, Array.append opened [| (Gf.of_int a, Gf.of_int b, []) |]))
  | 7 ->
    let rp = Array.map Array.copy p.Fri_oracle.round_polys in
    if Array.length rp > 0 then begin
      let g = rp.(a mod Array.length rp) in
      g.(b mod 3) <- bump g.(b mod 3)
    end;
    { p with Fri_oracle.round_polys = rp }
  | 8 ->
    let roots = Array.copy p.Fri_oracle.layer_roots in
    if Array.length roots > 0 then begin
      let i = a mod Array.length roots in
      roots.(i) <- flip roots.(i)
    end;
    { p with Fri_oracle.layer_roots = roots }
  | _ -> { p with Fri_oracle.final_constant = bump p.Fri_oracle.final_constant }

let prop_fri_flat_vs_oracle (leg : Test_native.leg) ~count =
  QCheck.Test.make ~count
    ~name:(Printf.sprintf "fri flat openings = query-at-a-time oracle (%s)" leg.name)
    QCheck.(
      triple small_nat
        (list_of_size (Gen.int_range 0 3)
           (quad small_nat small_nat (int_bound 10_000) (int_bound 10_000)))
        (option (pair (int_bound 1_000_000) (int_bound 254))))
    (fun (which, edits, byte_flip) ->
      let openings = Lazy.force fri_openings in
      let params, cm, point, value, proof =
        List.nth openings (which mod List.length openings)
      in
      let edited = List.fold_left edit_opening (Fri_oracle.of_flat proof) edits in
      let buf = Buffer.create 4096 in
      Fri_oracle.write_eval_proof buf edited;
      let data = Buffer.to_bytes buf in
      (match byte_flip with
      | Some (at, x) when Bytes.length data > 0 ->
        let at = at mod Bytes.length data in
        Bytes.set data at (Char.chr (Char.code (Bytes.get data at) lxor (1 + x)))
      | _ -> ());
      let got, want = leg.run (fun () -> fri_verdicts (params, cm, point, value) data) in
      if got <> want then QCheck.Test.fail_reportf "flat %s, oracle %s" got want;
      edits <> [] || byte_flip <> None || got = "Ok")

(* The whole Spartan proof of the FRI fault target: every structured
   mutator and some byte mutants, the flat verifier against Spartan over
   the oracle backend. *)
let fri_target = lazy (Targets.fri (), Targets.statement ())

let prop_fri_target_vs_oracle (leg : Test_native.leg) ~count =
  QCheck.Test.make ~count
    ~name:(Printf.sprintf "fri fault target: flat verdict = oracle verdict (%s)" leg.name)
    QCheck.int64
    (fun seed ->
      let target, (inst, io) = Lazy.force fri_target in
      let rng = Rng.create seed in
      let oracle data =
        Result.bind (Spartan_fri_oracle.proof_of_bytes data) (fun p ->
            Spartan_fri_oracle.verify Spartan_fri_oracle.test_params inst ~io p)
      in
      let mutants =
        List.filter_map
          (fun (name, f) -> Option.map (fun m -> (name, m)) (f rng))
          target.Fuzz.structured
        @ List.init 4 (fun _ ->
              let op, m = Mutate.random rng target.Fuzz.honest in
              (Mutate.op_name op, m))
      in
      List.iter
        (fun (name, data) ->
          let got, want = leg.run (fun () -> (show (target.Fuzz.verify data), show (oracle data))) in
          if got <> want then QCheck.Test.fail_reportf "%s: flat %s, oracle %s" name got want)
        mutants;
      true)

(* A hostile count is rejected as the tuple decoder rejects it, and before
   anything sized by it is allocated: every cut of an honest opening, then
   a 2^27 query count, layer count and path length on short buffers. The
   allocation is checked on the OCaml heap and, where /proc/self/statm
   exists, on the address space (a 2^27-digest path is 4 GiB). *)
let test_fri_decoder_bounds () =
  let _, _, _, _, proof = List.nth (Lazy.force fri_openings) 1 in
  let buf = Buffer.create 4096 in
  Fri_pcs.write_eval_proof buf proof;
  let honest = Buffer.to_bytes buf in
  let flat data = show (Result.map ignore (Fri_pcs.read_eval_proof (Zk_pcs.Codec.reader data))) in
  let tuple data =
    show (Result.map ignore (Fri_oracle.read_eval_proof (Zk_pcs.Codec.reader data)))
  in
  for cut = 0 to Bytes.length honest do
    let data = Bytes.sub honest 0 cut in
    Alcotest.(check string) (Printf.sprintf "cut at %d" cut) (tuple data) (flat data)
  done;
  let vm_bytes () =
    match In_channel.with_open_text "/proc/self/statm" In_channel.input_line with
    | Some line -> Some (4096 * int_of_string (List.hd (String.split_on_char ' ' line)))
    | None | (exception _) -> None
  in
  (* Header of an opening with no rounds or layers, then [tail] words. *)
  let hostile tail =
    let b = Buffer.create 64 in
    Zk_pcs.Codec.put_int b 0;
    Zk_pcs.Codec.put_int b 0;
    Zk_pcs.Codec.put_gf b Gf.zero;
    List.iter (Zk_pcs.Codec.put_int b) tail;
    Buffer.to_bytes b
  in
  let big = 1 lsl 27 in
  List.iter
    (fun (label, tail) ->
      let data = hostile tail in
      let vm0 = vm_bytes () and heap0 = Gc.allocated_bytes () in
      let got = flat data in
      let heap = Gc.allocated_bytes () -. heap0 and vm1 = vm_bytes () in
      Alcotest.(check string) label (tuple data) got;
      if String.equal got "Ok" then Alcotest.failf "%s: decoded" label;
      if heap > 1e6 then Alcotest.failf "%s: %.0f bytes allocated" label heap;
      match (vm0, vm1) with
      | Some a, Some b when b - a > 1 lsl 28 -> Alcotest.failf "%s: mapped %d bytes" label (b - a)
      | _ -> ())
    [
      ("query count", [ big; 3; 1 ]);
      ("layer count", [ 1; 5; big; 0; 0 ]);
      ("path length", [ 1; 5; 1; 0; 0; big; 0 ]);
      ("path length, one digest short", [ 1; 5; 1; 0; 0; 2; 0; 0; 0; 0; 0 ]);
    ]

(* The in-place coefficient map against the boxed one, at every size
   2^0..2^12, written into a longer buffer whose tail must stay as it
   was (the commit's zero padding). *)
let prop_monomial_coeffs =
  QCheck.Test.make ~count:10 ~name:"fri monomial_coeffs_into = boxed oracle, sizes 2^0..2^12"
    QCheck.int64
    (fun seed ->
      let rng = Rng.create seed in
      for l = 0 to 12 do
        let n = 1 lsl l in
        let table = Array.init n (fun _ -> Gf.random rng) in
        let dst = Fv.create (2 * n) in
        Fv.fill dst Gf.one;
        Fri_pcs.monomial_coeffs_into (Fv.of_array table) dst;
        let want = Fri_pcs_oracle.monomial_coeffs table in
        Array.iteri
          (fun i c ->
            if not (Gf.equal c (Fv.get dst i)) then
              QCheck.Test.fail_reportf "l=%d index %d: %s, oracle %s" l i
                (Gf.to_string (Fv.get dst i)) (Gf.to_string c))
          want;
        for i = n to (2 * n) - 1 do
          if not (Gf.equal Gf.one (Fv.get dst i)) then
            QCheck.Test.fail_reportf "l=%d: padding index %d written" l i
        done
      done;
      true)

(* --- counted work ------------------------------------------------------ *)

(* Transcript hashes per proof at perfbench scale, from its generators and
   seed 1: a count is noise-free where wall time is not, and the batched
   squeezes must hash exactly what one-at-a-time squeezing did, in every
   kernel tier. Litmus (64 transactions, Orion): 3642 of its 4021 hashes
   are the twelve 128-challenge [orion/rho] vectors and the three 189-index
   [orion/columns] draws. RSA modexp (16 instances, FRI): 642. *)
let test_transcript_hash_counts () =
  let seed = 1L in
  let count name expected prove =
    List.iter
      (fun (mode, run) ->
        Alcotest.(check int) (Printf.sprintf "%s transcript_hashes [%s]" name mode) expected
          (run prove))
      [
        ("scalar C", Nocap_native.Native.with_scalar_c);
        ("best tier", fun f -> f ());
      ]
  in
  let rows = 8 in
  let transactions =
    Zk_workloads.Litmus_circuit.random_transactions (Rng.create seed) ~rows ~count:64
  in
  let inst, asn =
    Zk_workloads.Litmus_circuit.circuit ~rows ~transactions ~seed:(Int64.succ seed) ()
  in
  count "litmus 64" 4021 (fun () ->
      let _, st = Spartan.prove ~rng:(Rng.create seed) Spartan.default_params inst asn in
      st.Spartan.transcript_hashes);
  let inst, asn = Zk_workloads.Modexp.circuit ~instances:16 ~seed () in
  count "rsa-fri 16" 642 (fun () ->
      let _, st = Spartan_fri.prove ~rng:(Rng.create seed) Spartan_fri.default_params inst asn in
      st.Spartan_fri.transcript_hashes)

let suite =
  [
    Alcotest.test_case "golden proof bytes across domain counts" `Slow
      test_golden_bytes;
    Alcotest.test_case "transcript hash counts at perfbench scale" `Slow
      test_transcript_hash_counts;
    Alcotest.test_case "fri golden proof bytes across domain counts" `Slow
      test_fri_golden_bytes;
    Alcotest.test_case "engine context never changes bytes" `Quick
      test_engine_invariance;
    Alcotest.test_case "orion backend end-to-end" `Quick test_orion_backend_e2e;
    Alcotest.test_case "fri backend end-to-end" `Quick test_fri_backend_e2e;
    QCheck_alcotest.to_alcotest prop_cross_backend_random_circuits;
    Alcotest.test_case "fri pcs direct contract" `Quick test_fri_pcs_direct;
    Alcotest.test_case "fri pcs one variable" `Quick test_fri_pcs_degenerate;
    Alcotest.test_case "tagged serialization" `Quick test_serialize_tagged;
    Alcotest.test_case "orion param validation" `Quick
      test_orion_param_validation;
    Alcotest.test_case "fri param validation" `Quick test_fri_param_validation;
    Alcotest.test_case "engine config parsing" `Quick test_engine_config;
    Alcotest.test_case "get_fv = get_gf_array, error for error" `Quick test_codec_fv;
    Alcotest.test_case "digest lanes = digest list" `Quick test_codec_digest_lanes;
    Alcotest.test_case "fri decoder = tuple decoder: cuts and hostile lengths" `Quick
      test_fri_decoder_bounds;
    QCheck_alcotest.to_alcotest prop_monomial_coeffs;
  ]
  @ List.concat_map
      (fun leg ->
        [
          QCheck_alcotest.to_alcotest (prop_fri_flat_vs_oracle leg ~count:150);
          QCheck_alcotest.to_alcotest (prop_fri_target_vs_oracle leg ~count:6);
        ])
      Test_native.legs
