(* Multi-limb bignum gadgets: arithmetic against int64 references, modular
   reduction, and a 64-bit-modulus RSA-style exponentiation through the
   SNARK. *)

module Gf = Zk_field.Gf
module Builder = Zk_r1cs.Builder
module R1cs = Zk_r1cs.R1cs
module Spartan = Zk_spartan.Spartan
module Rng = Zk_util.Rng

let test_roundtrip () =
  let b = Builder.create () in
  let x = Bignum.of_int64 b ~secret:true ~limbs:4 0x1234_5678_9abc_def0L in
  Alcotest.(check int64) "roundtrip" 0x1234_5678_9abc_def0L (Bignum.to_int64 b x);
  let inst, asn = Builder.finalize b in
  Alcotest.(check bool) "satisfied" true (R1cs.satisfied inst asn);
  Alcotest.(check bool) "overflow rejected" true
    (try
       let b2 = Builder.create () in
       ignore (Bignum.of_int64 b2 ~secret:true ~limbs:1 70000L);
       false
     with Invalid_argument _ -> true)

let test_mul_add () =
  let b = Builder.create () in
  let cases = [ (0xffffL, 0xffffL); (12345L, 67890L); (0L, 999L); (0xdeadbeefL, 3L) ] in
  List.iter
    (fun (xv, yv) ->
      let x = Bignum.of_int64 b ~secret:true ~limbs:2 xv in
      let y = Bignum.of_int64 b ~secret:true ~limbs:2 yv in
      let p = Bignum.mul b x y in
      Alcotest.(check int64)
        (Printf.sprintf "%Lu * %Lu" xv yv)
        (Int64.mul xv yv) (Bignum.to_int64 b p);
      let s = Bignum.add b x y in
      Alcotest.(check int64)
        (Printf.sprintf "%Lu + %Lu" xv yv)
        (Int64.add xv yv) (Bignum.to_int64 b s))
    cases;
  let inst, asn = Builder.finalize b in
  Alcotest.(check bool) "satisfied" true (R1cs.satisfied inst asn)

let test_less_than_and_mod () =
  let b = Builder.create () in
  let x = Bignum.of_int64 b ~secret:true ~limbs:4 987654321L in
  let m = Bignum.constant b ~limbs:4 1000003L in
  let lt = Bignum.less_than b m x in
  Alcotest.(check bool) "m < x" true (Gf.equal (Builder.value b lt) Gf.one);
  let r = Bignum.mod_reduce b x ~modulus:m in
  Alcotest.(check int64) "remainder" (Int64.rem 987654321L 1000003L) (Bignum.to_int64 b r);
  let inst, asn = Builder.finalize b in
  Alcotest.(check bool) "satisfied" true (R1cs.satisfied inst asn)

let modexp_ref x e m =
  (* Reference over int64 via repeated multiplication with 128-bit care:
     keep operands below 2^31 so products fit. *)
  let rec go acc base e =
    if e = 0 then acc
    else
      go
        (if e land 1 = 1 then Int64.rem (Int64.mul acc base) m else acc)
        (Int64.rem (Int64.mul base base) m)
        (e lsr 1)
  in
  go 1L (Int64.rem x m) e

let test_modexp_31bit () =
  (* A 31-bit modulus keeps the int64 reference exact while the circuit does
     full 64-bit-capable limb arithmetic. *)
  let m = 0x7FFF_FFEDL (* prime-ish 31-bit *) in
  let b = Builder.create () in
  let base = Bignum.of_int64 b ~secret:true ~limbs:2 123456789L in
  let modulus = Bignum.constant b ~limbs:2 m in
  let out = Bignum.modexp b ~base ~exponent:17 ~modulus in
  Alcotest.(check int64) "x^17 mod m" (modexp_ref 123456789L 17 m) (Bignum.to_int64 b out);
  let inst, asn = Builder.finalize b in
  Alcotest.(check bool) "satisfied" true (R1cs.satisfied inst asn);
  Printf.printf "bignum modexp(e=17, 32-bit modulus): %d constraints\n%!"
    inst.R1cs.num_constraints

let test_rsa_style_proof () =
  (* Prove knowledge of x with x^17 = y (mod m), m a 31-bit modulus, through
     the full SNARK; tampering with the public y must fail. *)
  let m = 0x7FFF_FFEDL in
  let xv = 987654321L in
  let b = Builder.create () in
  let base = Bignum.of_int64 b ~secret:true ~limbs:2 xv in
  let modulus = Bignum.constant b ~limbs:2 m in
  let out = Bignum.modexp b ~base ~exponent:17 ~modulus in
  (* Reveal the result limbs. *)
  Array.iter
    (fun w ->
      let pub = Builder.input b (Builder.value b w) in
      Zk_r1cs.Gadgets.assert_equal b (Builder.lc_var w) (Builder.lc_var pub))
    out.Bignum.limbs;
  let inst, asn = Builder.finalize b in
  let proof, _ = Spartan.prove Spartan.test_params inst asn in
  (match Spartan.verify Spartan.test_params inst ~io:(R1cs.public_io inst asn) proof with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rsa-style proof failed: %s" (Zk_pcs.Verify_error.to_string e));
  let io = R1cs.public_io inst asn in
  io.(Array.length io - 2) <- Gf.add io.(Array.length io - 2) Gf.one;
  match Spartan.verify Spartan.test_params inst ~io proof with
  | Ok () -> Alcotest.fail "accepted wrong exponentiation result"
  | Error _ -> ()

let prop_mul_random =
  QCheck.Test.make ~count:40 ~name:"bignum mul matches int64"
    QCheck.(pair (int_bound 0xFFFFFF) (int_bound 0xFFFFFF))
    (fun (a, c) ->
      let b = Builder.create () in
      let x = Bignum.of_int64 b ~secret:true ~limbs:2 (Int64.of_int a) in
      let y = Bignum.of_int64 b ~secret:true ~limbs:2 (Int64.of_int c) in
      let p = Bignum.mul b x y in
      let inst, asn = Builder.finalize b in
      Bignum.to_int64 b p = Int64.of_int (a * c) && R1cs.satisfied inst asn)

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "mul and add" `Quick test_mul_add;
    Alcotest.test_case "less_than and mod" `Quick test_less_than_and_mod;
    Alcotest.test_case "modexp 31-bit modulus" `Quick test_modexp_31bit;
    Alcotest.test_case "RSA-style proof" `Quick test_rsa_style_proof;
    QCheck_alcotest.to_alcotest prop_mul_random;
  ]
