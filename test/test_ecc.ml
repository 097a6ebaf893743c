(* Linear-code tests on the row encoder Orion runs ([encode_row_into]):
   Reed-Solomon (cross-checked against direct evaluation) and the expander
   ablation code; both must be linear and systematic enough for Orion's
   combination checks. *)

module Gf = Zk_field.Gf
module Rs = Zk_ecc.Reed_solomon
module Expander = Zk_ecc.Expander
module Rng = Zk_util.Rng

let gf = Alcotest.testable Gf.pp Gf.equal

let random_msg rng n = Array.init n (fun _ -> Gf.random rng)

let encode (module Code : Zk_ecc.Linear_code.S) msg =
  let dst = Nocap_vec.Fv.create (Code.blowup * Array.length msg) in
  Code.encode_row_into ~src:(Nocap_vec.Fv.of_array msg) ~dst;
  Nocap_vec.Fv.to_array dst

let rs_encode = encode (module Rs)
let expander_encode = encode (module Expander)

let test_rs_blowup () =
  let rng = Rng.create 20L in
  List.iter
    (fun n ->
      let cw = rs_encode (random_msg rng n) in
      Alcotest.(check int) (Printf.sprintf "blowup n=%d" n) (4 * n) (Array.length cw))
    [ 1; 2; 16; 128; 1024 ]

let test_rs_matches_direct_eval () =
  let rng = Rng.create 21L in
  let msg = random_msg rng 64 in
  let cw = rs_encode msg in
  List.iter
    (fun i -> Alcotest.check gf (Printf.sprintf "position %d" i) (Ecc_oracle.codeword_at msg i) cw.(i))
    [ 0; 1; 17; 100; 255 ]

let check_linear name encode rng n =
  let m1 = random_msg rng n and m2 = random_msg rng n in
  let c = Gf.random rng in
  let combo = Array.init n (fun i -> Gf.add m1.(i) (Gf.mul c m2.(i))) in
  let c1 = encode m1 and c2 = encode m2 and cc = encode combo in
  Array.iteri
    (fun j x ->
      Alcotest.check gf
        (Printf.sprintf "%s linearity at %d" name j)
        (Gf.add c1.(j) (Gf.mul c c2.(j)))
        x)
    cc

let test_rs_linear () =
  let rng = Rng.create 22L in
  check_linear "rs" rs_encode rng 128

let test_expander_blowup () =
  let rng = Rng.create 23L in
  List.iter
    (fun n ->
      let cw = expander_encode (random_msg rng n) in
      Alcotest.(check int) (Printf.sprintf "blowup n=%d" n) (4 * n) (Array.length cw))
    [ 16; 32; 64; 256; 1024 ]

let test_expander_linear () =
  let rng = Rng.create 24L in
  check_linear "expander" expander_encode rng 256

let test_expander_systematic () =
  (* The message is embedded verbatim at the head of the codeword. *)
  let rng = Rng.create 25L in
  let msg = random_msg rng 128 in
  let cw = expander_encode msg in
  Array.iteri (fun i m -> Alcotest.check gf "systematic prefix" m cw.(i)) msg

let test_expander_deterministic () =
  let rng = Rng.create 26L in
  let msg = random_msg rng 64 in
  let c1 = expander_encode msg and c2 = expander_encode msg in
  Array.iteri (fun i x -> Alcotest.check gf "deterministic" x c2.(i)) c1

let test_cost_models () =
  Alcotest.(check bool) "graph grows superlinearly vs base" true
    (Expander.graph_bytes 4096 > 4 * Expander.graph_bytes 512);
  Alcotest.(check int) "no gathers at base size" 0 (Expander.random_accesses 32);
  Alcotest.(check bool) "query counts per Sec. VII-A" true
    (Rs.query_count = 189 && Expander.query_count = 1222)

let prop_rs_distinct_messages_distinct_codewords =
  QCheck.Test.make ~count:30 ~name:"RS: distinct messages yield distinct codewords"
    QCheck.(pair small_nat small_nat)
    (fun (s1, s2) ->
      let n = 32 in
      let m1 = random_msg (Rng.create (Int64.of_int (s1 + 1))) n in
      let m2 = random_msg (Rng.create (Int64.of_int (s2 + 1000000))) n in
      let distinct = Array.exists2 (fun a b -> not (Gf.equal a b)) m1 m2 in
      (not distinct)
      || Array.exists2 (fun a b -> not (Gf.equal a b)) (rs_encode m1) (rs_encode m2))

(* Both codes reject a message length that is not a power of two and a
   codeword buffer that is not exactly [blowup] times the message. *)
let test_encode_row_shape_errors () =
  List.iter
    (fun (module Code : Zk_ecc.Linear_code.S) ->
      let prefix =
        if Code.name = Rs.name then "Reed_solomon.encode_row_into: "
        else "Expander.encode_row_into: "
      in
      let run ~src_len ~dst_len () =
        Code.encode_row_into ~src:(Nocap_vec.Fv.create src_len) ~dst:(Nocap_vec.Fv.create dst_len)
      in
      let pow2 = Invalid_argument (prefix ^ "message length must be a power of two") in
      let len = Invalid_argument (prefix ^ "dst length <> blowup * src length") in
      Alcotest.check_raises (Code.name ^ " src 0") pow2 (run ~src_len:0 ~dst_len:0);
      Alcotest.check_raises (Code.name ^ " src 48") pow2 (run ~src_len:48 ~dst_len:(Code.blowup * 48));
      Alcotest.check_raises (Code.name ^ " dst short") len
        (run ~src_len:64 ~dst_len:((Code.blowup * 64) - 1));
      Alcotest.check_raises (Code.name ^ " dst long") len
        (run ~src_len:64 ~dst_len:((Code.blowup * 64) + 1)))
    [ (module Rs); (module Expander) ]

let suite =
  [
    Alcotest.test_case "RS blowup" `Quick test_rs_blowup;
    Alcotest.test_case "RS matches direct evaluation" `Quick test_rs_matches_direct_eval;
    Alcotest.test_case "RS linearity" `Quick test_rs_linear;
    Alcotest.test_case "expander blowup" `Quick test_expander_blowup;
    Alcotest.test_case "expander linearity" `Quick test_expander_linear;
    Alcotest.test_case "expander systematic" `Quick test_expander_systematic;
    Alcotest.test_case "expander deterministic" `Quick test_expander_deterministic;
    Alcotest.test_case "encode_row_into shape errors" `Quick test_encode_row_shape_errors;
    Alcotest.test_case "cost models" `Quick test_cost_models;
    QCheck_alcotest.to_alcotest prop_rs_distinct_messages_distinct_codewords;
  ]
