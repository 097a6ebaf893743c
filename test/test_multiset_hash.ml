(* Multiset hashing: the 4-gamma component of Spartan's SPARK memory
   checking. *)

module Gf = Zk_field.Gf
module Multiset = Multiset_hash
module Transcript = Zk_hash.Transcript
module Rng = Zk_util.Rng

let params () = Multiset.params_of_transcript (Transcript.create "ms-test")

let test_permutation_invariance () =
  let ps = params () in
  let xs = List.init 20 (fun i -> Gf.of_int ((i * 31) + 5)) in
  let shuffled = List.rev xs in
  Alcotest.(check bool) "order does not matter" true
    (Multiset.equal (Multiset.digest_of_list ps xs) (Multiset.digest_of_list ps shuffled))

let test_multiplicity_matters () =
  let ps = params () in
  let a = Multiset.digest_of_list ps [ Gf.of_int 3; Gf.of_int 3; Gf.of_int 5 ] in
  let b = Multiset.digest_of_list ps [ Gf.of_int 3; Gf.of_int 5; Gf.of_int 5 ] in
  Alcotest.(check bool) "different multiplicities differ" false (Multiset.equal a b)

let test_union_homomorphism () =
  let ps = params () in
  let xs = [ Gf.of_int 1; Gf.of_int 2 ] and ys = [ Gf.of_int 9; Gf.of_int 2 ] in
  Alcotest.(check bool) "union = concat" true
    (Multiset.equal
       (Multiset.union (Multiset.digest_of_list ps xs) (Multiset.digest_of_list ps ys))
       (Multiset.digest_of_list ps (xs @ ys)))

let test_tuples () =
  let ps = params () in
  let d1 = Multiset.add_tuple (Multiset.empty ps) [| Gf.of_int 1; Gf.of_int 2 |] in
  let d2 = Multiset.add_tuple (Multiset.empty ps) [| Gf.of_int 2; Gf.of_int 1 |] in
  Alcotest.(check bool) "tuple order matters" false (Multiset.equal d1 d2);
  Alcotest.(check int) "4 instantiations" 4 Multiset.instantiations;
  Alcotest.(check int) "mults per element" 4 Multiset.mults_per_element

let prop_random_collision_free =
  (* Random distinct multisets must not collide (probability ~ n/p^4). *)
  QCheck.Test.make ~count:50 ~name:"multiset digests separate random multisets"
    QCheck.(pair small_nat small_nat)
    (fun (s1, s2) ->
      let ps = params () in
      let mk seed =
        let rng = Rng.create (Int64.of_int (seed + 1)) in
        List.init 10 (fun _ -> Gf.random rng)
      in
      s1 = s2
      || not (Multiset.equal (Multiset.digest_of_list ps (mk s1)) (Multiset.digest_of_list ps (mk s2))))

let suite =
  [
    Alcotest.test_case "permutation invariance" `Quick test_permutation_invariance;
    Alcotest.test_case "multiplicity matters" `Quick test_multiplicity_matters;
    Alcotest.test_case "union homomorphism" `Quick test_union_homomorphism;
    Alcotest.test_case "tuples" `Quick test_tuples;
    QCheck_alcotest.to_alcotest prop_random_collision_free;
  ]
