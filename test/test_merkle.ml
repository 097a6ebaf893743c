(* Merkle-tree tests: paths verify, wrong anything fails. *)

module Merkle = Zk_merkle.Merkle
module Keccak = Zk_hash.Keccak
module Gf = Zk_field.Gf
module Fv = Nocap_vec.Fv
module Rng = Zk_util.Rng

let leaves n = Array.init n (fun i -> Keccak.sha3_256_string (Printf.sprintf "leaf-%d" i))

let build ls = Merkle.build (Merkle.of_digests ls)

(* Every path of [t] as flat lanes, leaf after leaf. *)
let all_paths t =
  let n = Merkle.num_leaves t and depth = Merkle.depth t in
  let paths = Fv.create (4 * n * depth) in
  for i = 0 to n - 1 do
    Merkle.path_into t i paths ~pos:(4 * i * depth)
  done;
  paths

let check ?root t ~index ~leaves ~paths =
  let root = Option.value root ~default:(Merkle.root t) and depth = Merkle.depth t in
  Merkle.check_paths ~root ~depth ~index ~leaves:(Merkle.of_digests leaves) ~paths
    ~path_pos:(Array.map (fun i -> 4 * i * depth) index)

let test_roundtrip () =
  List.iter
    (fun n ->
      let ls = leaves n in
      let t = build ls in
      Alcotest.(check int) "num_leaves" n (Merkle.num_leaves t);
      Alcotest.(check (array bool))
        (Printf.sprintf "n=%d: every leaf verifies" n)
        (Array.make n true)
        (check t ~index:(Array.init n Fun.id) ~leaves:ls ~paths:(all_paths t)))
    [ 1; 2; 3; 7; 8; 16; 100 ]

let test_rejections () =
  let ls = leaves 16 in
  let t = build ls in
  let paths = all_paths t in
  let one ?root ~index leaf paths =
    (check ?root t ~index:[| index |] ~leaves:[| leaf |] ~paths).(0)
  in
  let depth = Merkle.depth t in
  Alcotest.(check bool) "honest" true (one ~index:5 ls.(5) paths);
  Alcotest.(check bool) "wrong leaf" false (one ~index:5 ls.(6) paths);
  (* Leaf 5 and its path checked at index 6. *)
  let moved = Fv.copy paths in
  Fv.blit ~src:paths ~src_pos:(4 * 5 * depth) ~dst:moved ~dst_pos:(4 * 6 * depth) ~len:(4 * depth);
  Alcotest.(check bool) "wrong index" false (one ~index:6 ls.(5) moved);
  Alcotest.(check bool) "wrong root" false
    (one ~root:(Keccak.sha3_256_string "evil") ~index:5 ls.(5) paths);
  let tampered = Fv.copy paths in
  Keccak.set_digest tampered ((5 * depth) + 1) (Keccak.sha3_256_string "x");
  Alcotest.(check bool) "tampered path" false (one ~index:5 ls.(5) tampered)

let test_depth_and_path_length () =
  let t = build (leaves 16) in
  Alcotest.(check int) "depth 16" 4 (Merkle.depth t);
  Alcotest.(check int) "path length matches" 4 (List.length (Merkle_oracle.path_of_tree t 3));
  Alcotest.(check int) "path_length 16" 4 (Merkle.path_length 16);
  Alcotest.(check int) "path_length 17" 5 (Merkle.path_length 17);
  Alcotest.(check int) "path_length 1" 0 (Merkle.path_length 1)

let test_column_leaf () =
  let col = Array.init 128 Gf.of_int in
  let packed = Bytes.create (8 * Array.length col) in
  Array.iteri (fun i e -> Bytes.set_int64_le packed (8 * i) (Gf.to_int64 e)) col;
  Alcotest.(check string) "column leaf = sha3 of the packed column"
    (Keccak.to_hex (Keccak_oracle.sha3_256 packed))
    (Keccak.to_hex
       (Keccak.digest_at (Merkle.leaves_of_matrix ~rows:128 ~cols:1 (Fv.of_array col)) 0))

(* The oracle's boxed path check is total on hostile input: a bad index,
   an over-long path or a short digest is a reason, never an exception. *)
let test_oracle_check_path_hostile () =
  let ls = leaves 16 in
  let oracle = Merkle_oracle.build ls in
  let root = Merkle_oracle.root oracle and path = Merkle_oracle.path oracle 5 in
  let verdict name want r = Alcotest.(check (result unit string)) name want r in
  verdict "honest" (Ok ()) (Merkle_oracle.check_path ~root ~index:5 ~leaf:ls.(5) ~path);
  verdict "wrong leaf" (Error "root mismatch")
    (Merkle_oracle.check_path ~root ~index:5 ~leaf:ls.(6) ~path);
  verdict "negative index" (Error "negative leaf index")
    (Merkle_oracle.check_path ~root ~index:(-1) ~leaf:ls.(5) ~path);
  verdict "path too long" (Error "path too long")
    (Merkle_oracle.check_path ~root ~index:5 ~leaf:ls.(5)
       ~path:(List.init (Merkle_oracle.max_proof_depth + 1) (fun _ -> ls.(0))));
  verdict "short digest" (Error "path digest has wrong length")
    (Merkle_oracle.check_path ~root ~index:5 ~leaf:ls.(5) ~path:("short" :: List.tl path))

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
        Array.init n (fun j -> Merkle_oracle.leaf_of_column (column j))
      in
      let oracle = Merkle_oracle.build expected_leaves in
      let padded = 1 lsl Merkle_oracle.depth oracle in
      let same tree =
        String.equal (Merkle_oracle.root oracle) (Merkle.root tree)
        && Merkle.depth tree = Merkle_oracle.depth oracle
        && List.for_all
             (fun i -> Merkle_oracle.path oracle i = Merkle_oracle.path_of_tree tree i)
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

(* Flat paths and the batched walk against the string-digest oracle's
   [path] / [check_path], in every kernel leg: every leaf of a 32-leaf
   tree, with a leaf lane, a path lane or an index bit tampered in some of
   them. *)
let test_flat_paths () =
  let n = 32 in
  let ls = leaves n in
  let t = build ls in
  let oracle = Merkle_oracle.build ls in
  let root = Merkle.root t and depth = Merkle.depth t in
  let paths = all_paths t in
  for i = 0 to n - 1 do
    Alcotest.(check (list string)) (Printf.sprintf "path_into %d" i) (Merkle_oracle.path oracle i)
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
          (Merkle_oracle.check_path ~root ~index:index.(i) ~leaf:(Keccak.digest_at leaf_lanes i)
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
    Alcotest.test_case "oracle check_path: hostile input" `Quick test_oracle_check_path_hostile;
  ]
