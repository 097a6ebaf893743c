(* NTT correctness: inverse round trips, naive DFT cross-check, convolution
   theorem, four-step equivalence (the algorithm NoCap's NTT FU runs). *)

module Gf = Zk_field.Gf
module Ntt = Zk_ntt.Ntt.Gf_ntt
module Fr = Zk_field.Fr_bls
module Fr_ntt = Zk_ntt.Ntt.Fr_ntt
module Rng = Zk_util.Rng

let random_vec rng n = Array.init n (fun _ -> Gf.random rng)

let check_gf_array msg expected actual =
  Alcotest.(check int) (msg ^ " length") (Array.length expected) (Array.length actual);
  Array.iteri
    (fun i e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s [%d]" msg i)
        true (Gf.equal e actual.(i)))
    expected

(* O(n^2) reference DFT. *)
let dft_naive a =
  let n = Array.length a in
  let log_n =
    let rec go k m = if m = 1 then k else go (k + 1) (m lsr 1) in
    go 0 n
  in
  let w = Gf.root_of_unity log_n in
  Array.init n (fun k ->
      let acc = ref Gf.zero in
      for j = 0 to n - 1 do
        acc := Gf.add !acc (Gf.mul a.(j) (Gf.pow w (Int64.of_int (j * k mod n))))
      done;
      !acc)

let test_matches_naive () =
  let rng = Rng.create 1L in
  List.iter
    (fun n ->
      let a = random_vec rng n in
      check_gf_array (Printf.sprintf "n=%d" n) (dft_naive a) (Ntt.forward_copy (Ntt.plan n) a))
    [ 1; 2; 4; 8; 16; 32 ]

let test_roundtrip () =
  let rng = Rng.create 2L in
  List.iter
    (fun n ->
      let plan = Ntt.plan n in
      let a = random_vec rng n in
      check_gf_array
        (Printf.sprintf "roundtrip n=%d" n)
        a
        (Ntt.inverse_copy plan (Ntt.forward_copy plan a)))
    [ 2; 8; 64; 256; 1024; 4096 ]

let test_convolution () =
  (* NTT(a) .* NTT(b) = NTT(a circ* b). *)
  let rng = Rng.create 3L in
  let n = 64 in
  let plan = Ntt.plan n in
  let a = random_vec rng n and b = random_vec rng n in
  let circular =
    Array.init n (fun k ->
        let acc = ref Gf.zero in
        for i = 0 to n - 1 do
          acc := Gf.add !acc (Gf.mul a.(i) b.((k - i + n) mod n))
        done;
        !acc)
  in
  let fa = Ntt.forward_copy plan a and fb = Ntt.forward_copy plan b in
  let pointwise = Array.init n (fun i -> Gf.mul fa.(i) fb.(i)) in
  check_gf_array "convolution theorem" circular (Ntt.inverse_copy plan pointwise)

let test_four_step () =
  let rng = Rng.create 4L in
  List.iter
    (fun (rows, cols) ->
      let n = rows * cols in
      let a = random_vec rng n in
      let expected = Ntt.forward_copy (Ntt.plan n) a in
      check_gf_array
        (Printf.sprintf "four-step %dx%d" rows cols)
        expected
        (Nocap_vec.Fv.to_array
           (Ntt_oracle.four_step_forward_fv ~rows ~cols (Nocap_vec.Fv.of_array a))))
    [ (2, 2); (4, 4); (2, 8); (8, 2); (16, 16); (64, 64); (8, 512) ]

let test_linearity () =
  let rng = Rng.create 5L in
  let n = 128 in
  let plan = Ntt.plan n in
  let a = random_vec rng n and b = random_vec rng n in
  let c = Gf.random rng in
  let lhs =
    Ntt.forward_copy plan (Array.init n (fun i -> Gf.add a.(i) (Gf.mul c b.(i))))
  in
  let fa = Ntt.forward_copy plan a and fb = Ntt.forward_copy plan b in
  let rhs = Array.init n (fun i -> Gf.add fa.(i) (Gf.mul c fb.(i))) in
  check_gf_array "linearity" lhs rhs

let test_fr_ntt () =
  (* The Groth16 baseline's Fr NTT must also round trip. *)
  let rng = Rng.create 6L in
  let n = 256 in
  let plan = Fr_ntt.plan n in
  let a = Array.init n (fun _ -> Fr.random rng) in
  let back = Fr_ntt.inverse_copy plan (Fr_ntt.forward_copy plan a) in
  Array.iteri
    (fun i e -> Alcotest.(check bool) "Fr roundtrip" true (Fr.equal e back.(i)))
    a

let test_butterfly_count () =
  Alcotest.(check int) "n=8" 12 (Ntt.butterfly_count 8);
  Alcotest.(check int) "n=4096" (2048 * 12) (Ntt.butterfly_count 4096)

let test_bad_sizes () =
  Alcotest.check_raises "non power of two" (Invalid_argument "Ntt: size must be a power of two")
    (fun () -> ignore (Ntt.plan 3))

let suite =
  [
    Alcotest.test_case "matches naive DFT" `Quick test_matches_naive;
    Alcotest.test_case "inverse roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "convolution theorem" `Quick test_convolution;
    Alcotest.test_case "four-step equivalence" `Quick test_four_step;
    Alcotest.test_case "linearity" `Quick test_linearity;
    Alcotest.test_case "Fr NTT roundtrip" `Quick test_fr_ntt;
    Alcotest.test_case "butterfly count" `Quick test_butterfly_count;
    Alcotest.test_case "bad sizes rejected" `Quick test_bad_sizes;
  ]
