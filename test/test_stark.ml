(* The mini-STARK (Fibonacci AIR over FRI): completeness, boundary and
   transition soundness, and trace-binding. *)

module Gf = Zk_field.Gf
module Stark = Zk_orion.Stark
module Fri = Zk_orion.Fri
module Fv = Nocap_vec.Fv

let test_trace () =
  let t = Stark.trace_of ~n:8 ~a0:Gf.one ~a1:Gf.one in
  Alcotest.(check bool) "fib" true
    (Array.map Gf.to_int64 t = [| 1L; 1L; 2L; 3L; 5L; 8L; 13L; 21L |])

let test_completeness () =
  List.iter
    (fun n ->
      let a0 = Gf.of_int 3 and a1 = Gf.of_int 7 in
      let proof, last = Stark.prove ~n ~a0 ~a1 in
      match Stark.verify ~n ~a0 ~a1 ~claimed_last:last proof with
      | Ok () -> ()
      | Error e -> Alcotest.failf "n=%d: %s" n e)
    [ 4; 16; 64; 256 ]

let test_wrong_boundary_rejected () =
  let n = 64 in
  let a0 = Gf.one and a1 = Gf.one in
  let proof, last = Stark.prove ~n ~a0 ~a1 in
  (match Stark.verify ~n ~a0 ~a1 ~claimed_last:(Gf.add last Gf.one) proof with
  | Ok () -> Alcotest.fail "accepted a wrong final value"
  | Error _ -> ());
  match Stark.verify ~n ~a0:(Gf.of_int 2) ~a1 ~claimed_last:last proof with
  | Ok () -> Alcotest.fail "accepted a wrong initial value"
  | Error _ -> ()

(* A proof at n = 32 with one edit to its flat openings, and the verdict. *)
let tampered edit =
  let n = 32 in
  let a0 = Gf.of_int 5 and a1 = Gf.of_int 9 in
  let proof, last = Stark.prove ~n ~a0 ~a1 in
  let openings = edit proof.Stark.openings in
  Stark.verify ~n ~a0 ~a1 ~claimed_last:last { proof with Stark.openings }

let rejected name want got =
  match got with
  | Ok () -> Alcotest.failf "%s: accepted" name
  | Error e -> Alcotest.(check string) name want e

(* The buffer without its last [per] elements. *)
let drop_last per v = Fv.sub_view v ~pos:0 ~len:(Fv.length v - per)

let test_tampered_openings_rejected () =
  (* Value 0 of query 0; lane 5 of the third opening's path. *)
  rejected "flipped value" "query 0: bad trace opening 0: root mismatch"
    (tampered (fun o ->
         let values = Fv.copy o.Stark.values in
         Fv.set values 0 (Gf.add (Fv.get values 0) Gf.one);
         { o with Stark.values }));
  rejected "flipped path lane" "query 0: bad trace opening 2: root mismatch"
    (tampered (fun o ->
         let paths = Fv.copy o.Stark.paths in
         let lane = (2 * (Fv.length paths / Fv.length o.Stark.values)) + 5 in
         Fv.set paths lane (Int64.logxor (Fv.get paths lane) 1L);
         { o with Stark.paths }));
  rejected "values one query short" "opening count mismatch"
    (tampered (fun o -> { o with Stark.values = drop_last 6 o.Stark.values }));
  rejected "paths one query short" "opening count mismatch"
    (tampered (fun o ->
         let per_value = Fv.length o.Stark.paths / Fv.length o.Stark.values in
         { o with Stark.paths = drop_last (6 * per_value) o.Stark.paths }));
  let nq = Fri.default_params.Fri.num_queries in
  rejected "last query one value short" "need six openings"
    (tampered (fun o -> { o with Stark.values = drop_last 1 o.Stark.values }));
  rejected "last path one digest short"
    (Printf.sprintf "query %d: bad trace opening 5: wrong path length" (nq - 1))
    (tampered (fun o -> { o with Stark.paths = drop_last 4 o.Stark.paths }))

let test_proof_scales_logarithmically () =
  let size n =
    let proof, _ = Stark.prove ~n ~a0:Gf.one ~a1:Gf.one in
    Stark.proof_size_bytes proof
  in
  let s64 = size 64 and s1024 = size 1024 in
  (* 16x the computation, far less than 16x the proof. *)
  Alcotest.(check bool)
    (Printf.sprintf "sublinear growth (%d -> %d)" s64 s1024)
    true
    (s1024 < 3 * s64)

(* The proof at n = 256: trace root, FRI proof and trace openings
   hashed in order, and its size. *)
let test_golden () =
  let proof, last = Stark.prove ~n:256 ~a0:Gf.one ~a1:Gf.one in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf proof.Stark.trace_root;
  Test_fri.fingerprint_into buf proof.Stark.fri;
  let { Stark.values; paths } = proof.Stark.openings in
  let depth = Fv.length paths / (4 * Fv.length values) in
  for k = 0 to Fv.length values - 1 do
    Buffer.add_int64_le buf (Gf.to_int64 (Fv.get values k));
    for d = 0 to depth - 1 do
      Buffer.add_string buf (Zk_hash.Keccak.digest_at paths ((k * depth) + d))
    done
  done;
  let hash = Zk_hash.Keccak.to_hex (Zk_hash.Keccak.sha3_256_string (Buffer.contents buf)) in
  Alcotest.(check string) "proof hash" "2b79702997c2fbecc2a08b9d33f6eed792b19b6a7fb079f33b1256adb848b7b3" hash;
  Alcotest.(check int) "proof size" 107128 (Stark.proof_size_bytes proof);
  Alcotest.(check int) "fri proof size" 48056 (Fri.proof_size_bytes proof.Stark.fri);
  match Stark.verify ~n:256 ~a0:Gf.one ~a1:Gf.one ~claimed_last:last proof with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let suite =
  [
    Alcotest.test_case "golden proof at n = 256" `Quick test_golden;
    Alcotest.test_case "trace" `Quick test_trace;
    Alcotest.test_case "completeness" `Quick test_completeness;
    Alcotest.test_case "wrong boundary rejected" `Quick test_wrong_boundary_rejected;
    Alcotest.test_case "tampered openings rejected" `Quick test_tampered_openings_rejected;
    Alcotest.test_case "logarithmic proofs" `Quick test_proof_scales_logarithmically;
  ]
