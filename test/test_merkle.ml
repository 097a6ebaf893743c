(* Merkle-tree tests: paths verify, wrong anything fails. *)

module Merkle = Zk_merkle.Merkle
module Keccak = Zk_hash.Keccak
module Gf = Zk_field.Gf
module Fv = Nocap_vec.Fv
module Rng = Zk_util.Rng

let leaves n = Array.init n (fun i -> Keccak.sha3_256_string (Printf.sprintf "leaf-%d" i))

let build ls = Merkle.build (Merkle.of_digests ls)

let test_roundtrip () =
  List.iter
    (fun n ->
      let ls = leaves n in
      let t = build ls in
      Alcotest.(check int) "num_leaves" n (Merkle.num_leaves t);
      for i = 0 to n - 1 do
        Alcotest.(check (result unit string))
          (Printf.sprintf "n=%d leaf %d verifies" n i)
          (Ok ())
          (Merkle.check_path ~root:(Merkle.root t) ~index:i ~leaf:ls.(i) ~path:(Merkle.path t i))
      done)
    [ 1; 2; 3; 7; 8; 16; 100 ]

let test_rejections () =
  let ls = leaves 16 in
  let t = build ls in
  let root = Merkle.root t in
  let path5 = Merkle.path t 5 in
  let mismatch name r =
    Alcotest.(check (result unit string)) name (Error "root mismatch") r
  in
  mismatch "wrong leaf" (Merkle.check_path ~root ~index:5 ~leaf:ls.(6) ~path:path5);
  mismatch "wrong index" (Merkle.check_path ~root ~index:6 ~leaf:ls.(5) ~path:path5);
  mismatch "wrong root"
    (Merkle.check_path ~root:(Keccak.sha3_256_string "evil") ~index:5 ~leaf:ls.(5) ~path:path5);
  let tampered = match path5 with x :: rest -> Keccak.sha3_256_string "x" :: rest @ [ x ] |> List.tl | [] -> [] in
  mismatch "tampered path" (Merkle.check_path ~root ~index:5 ~leaf:ls.(5) ~path:tampered)

let test_depth_and_path_length () =
  let t = build (leaves 16) in
  Alcotest.(check int) "depth 16" 4 (Merkle.depth t);
  Alcotest.(check int) "path length matches" 4 (List.length (Merkle.path t 3));
  Alcotest.(check int) "path_length 16" 4 (Merkle.path_length 16);
  Alcotest.(check int) "path_length 17" 5 (Merkle.path_length 17);
  Alcotest.(check int) "path_length 1" 0 (Merkle.path_length 1)

let test_column_leaf () =
  let col = Array.init 128 Gf.of_int in
  Alcotest.(check string) "column leaf = hash_gf"
    (Keccak.to_hex (Keccak.hash_gf col))
    (Keccak.to_hex (Merkle.leaf_of_column col))

let test_root_depends_on_all_leaves () =
  let ls = leaves 8 in
  let r1 = Merkle.root (build ls) in
  ls.(7) <- Keccak.sha3_256_string "changed";
  let r2 = Merkle.root (build ls) in
  Alcotest.(check bool) "root changed" false (String.equal r1 r2)

(* The flat tree against the string-digest oracle, in every kernel leg
   (OCaml, scalar C, SIMD). Leaves are the column hashes of a random
   [rows x n] matrix — [n] mostly not a multiple of 4, so both x4 kernels
   end on their scalar tails, and [rows] crossing the 17-lane sponge rate.
   Every path is checked, the padding leaves' included, for a one-shot
   build and for a Builder fed random mixed chunks (aligned power-of-two
   runs and ragged ones). *)
let prop_flat_vs_oracle =
  QCheck.Test.make ~count:40 ~name:"flat tree = string-digest oracle (all legs, builder chunks)"
    QCheck.(triple (int_range 1 150) (int_range 1 20) small_int)
    (fun (n, rows, seed) ->
      let rng = Rng.create (Int64.of_int (succ seed)) in
      let flat = Fv.create (rows * n) in
      for i = 0 to (rows * n) - 1 do
        Fv.set flat i (Gf.random rng)
      done;
      let column j = Array.init rows (fun r -> Fv.get flat ((r * n) + j)) in
      let expected_leaves =
        Test_native.off.run (fun () -> Array.init n (fun j -> Keccak.hash_gf (column j)))
      in
      let oracle = Merkle_oracle.build expected_leaves in
      let padded = 1 lsl Merkle_oracle.depth oracle in
      let same tree =
        String.equal (Merkle_oracle.root oracle) (Merkle.root tree)
        && Merkle.depth tree = Merkle_oracle.depth oracle
        && List.for_all
             (fun i -> Merkle_oracle.path oracle i = Merkle.path tree i)
             (List.init padded Fun.id)
      in
      let chunked leaves =
        let b = Merkle.Builder.create n in
        let pos = ref 0 in
        while !pos < n do
          let rest = n - !pos in
          let len =
            if Rng.int rng 2 = 0 then begin
              let m = ref 1 in
              while 2 * !m <= rest && !pos land ((2 * !m) - 1) = 0 && Rng.int rng 4 > 0 do
                m := 2 * !m
              done;
              !m
            end
            else min rest (1 + Rng.int rng 13)
          in
          Merkle.Builder.add b (Fv.sub_view leaves ~pos:(4 * !pos) ~len:(4 * len));
          pos := !pos + len
        done;
        Merkle.Builder.finish b
      in
      List.for_all
        (fun (leg : Test_native.leg) ->
          leg.run (fun () ->
              let leaves = Merkle.leaves_of_matrix ~rows ~cols:n flat in
              Array.for_all Fun.id
                (Array.init n (fun j -> String.equal expected_leaves.(j) (Keccak.digest_at leaves j)))
              && same (Merkle.build leaves)
              && same (chunked leaves)))
        Test_native.legs)

(* Flat paths and the batched walk against [path] / [check_path], in every
   kernel leg: every leaf of a 32-leaf tree, with a leaf lane, a path lane
   or an index bit tampered in some of them. *)
let test_flat_paths () =
  let n = 32 in
  let ls = leaves n in
  let t = build ls in
  let root = Merkle.root t and depth = Merkle.depth t in
  let paths = Fv.create (4 * n * depth) in
  for i = 0 to n - 1 do
    Merkle.path_into t i paths ~pos:(4 * i * depth);
    Alcotest.(check (list string)) (Printf.sprintf "path_into %d" i) (Merkle.path t i)
      (List.init depth (fun d -> Keccak.digest_at paths ((i * depth) + d)))
  done;
  let leaf_lanes = Merkle.of_digests ls in
  let index = Array.init n Fun.id in
  (* Leaves 0 mod 4 get a flipped leaf lane, 1 mod 4 a flipped path lane,
     2 mod 4 a flipped index bit; 3 mod 4 stay honest. *)
  let flip v i = Fv.set v i (Int64.logxor (Fv.get v i) 0x100L) in
  for i = 0 to n - 1 do
    match i mod 4 with
    | 0 -> flip leaf_lanes ((4 * i) + (i mod 3))
    | 1 -> flip paths ((4 * i * depth) + (4 * (i mod depth)) + 2)
    | 2 -> index.(i) <- index.(i) lxor (1 lsl (i mod depth))
    | _ -> ()
  done;
  let expected =
    Array.init n (fun i ->
        Result.is_ok
          (Merkle.check_path ~root ~index:index.(i) ~leaf:(Keccak.digest_at leaf_lanes i)
             ~path:(List.init depth (fun d -> Keccak.digest_at paths ((i * depth) + d)))))
  in
  Alcotest.(check (array bool)) "honest ones verify" (Array.init n (fun i -> i mod 4 = 3)) expected;
  List.iter
    (fun (leg : Test_native.leg) ->
      Alcotest.(check (array bool)) ("check_paths = check_path, " ^ leg.name) expected
        (leg.run (fun () ->
             Merkle.check_paths ~root ~depth ~index ~leaves:leaf_lanes ~paths
               ~path_pos:(Array.init n (fun i -> 4 * i * depth)))))
    Test_native.legs

let suite =
  [
    Alcotest.test_case "build and verify" `Quick test_roundtrip;
    Alcotest.test_case "rejections" `Quick test_rejections;
    Alcotest.test_case "depth and path length" `Quick test_depth_and_path_length;
    Alcotest.test_case "column leaf" `Quick test_column_leaf;
    Alcotest.test_case "root covers all leaves" `Quick test_root_depends_on_all_leaves;
    QCheck_alcotest.to_alcotest prop_flat_vs_oracle;
    Alcotest.test_case "flat paths and batched path checks" `Quick test_flat_paths;
  ]
