(* Known-answer tests for the from-scratch SHA3-256, plus transcript
   determinism/divergence tests. *)

module Keccak = Zk_hash.Keccak
module Transcript = Zk_hash.Transcript
module Gf = Zk_field.Gf

let hex = Keccak.to_hex

let test_sha3_kats () =
  (* FIPS 202 / NIST CAVP known answers. *)
  Alcotest.(check string) "empty"
    "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"
    (hex (Keccak.sha3_256_string ""));
  Alcotest.(check string) "abc"
    "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"
    (hex (Keccak.sha3_256_string "abc"));
  Alcotest.(check string) "fox"
    "69070dda01975c8c120c3aada1b282394e7f032fa9cf32f4cb2259a0897dfc04"
    (hex (Keccak.sha3_256_string "The quick brown fox jumps over the lazy dog"));
  (* 200 bytes of 0xa3: crosses the 136-byte rate boundary (multi-block). *)
  Alcotest.(check string) "1600-bit 0xa3 message"
    "79f38adec5c20307a98ef76e8324afbfd46cfd81b22e3973c65fa1bd9de31787"
    (hex (Keccak.sha3_256 (Bytes.make 200 '\xa3')))

let test_rate_boundaries () =
  (* Exactly one rate block (136 bytes) and one byte either side: the padding
     logic must place 0x06/0x80 in a fresh block when the message fills the
     rate exactly. Compare lengths/distinctness rather than external KATs. *)
  let d135 = Keccak.sha3_256 (Bytes.make 135 'x') in
  let d136 = Keccak.sha3_256 (Bytes.make 136 'x') in
  let d137 = Keccak.sha3_256 (Bytes.make 137 'x') in
  Alcotest.(check int) "digest length" 32 (String.length d136);
  Alcotest.(check bool) "135 <> 136" false (String.equal d135 d136);
  Alcotest.(check bool) "136 <> 137" false (String.equal d136 d137)

(* One Merkle node over the flat lane form: digests [0] and [1] of a
   two-digest buffer. *)
let node a b =
  let src = Nocap_vec.Fv.create 8 and dst = Nocap_vec.Fv.create 4 in
  Keccak.set_digest src 0 a;
  Keccak.set_digest src 1 b;
  Keccak.hash_nodes_into ~src ~dst;
  Keccak.digest_at dst 0

let test_node () =
  let a = Keccak.sha3_256_string "left" and b = Keccak.sha3_256_string "right" in
  Alcotest.(check string) "node = sha3(a||b)"
    (hex (Keccak_oracle.sha3_256 (Bytes.of_string (a ^ b))))
    (hex (node a b));
  Alcotest.(check bool) "order matters" false (String.equal (node a b) (node b a))

let test_leaf_packing () =
  let elems = [| Gf.of_int 1; Gf.of_int 2; Gf.of_int 3; Gf.of_int 4 |] in
  let buf = Bytes.create 32 in
  Array.iteri (fun i e -> Bytes.set_int64_le buf (8 * i) (Gf.to_int64 e)) elems;
  let leaf = Nocap_vec.Fv.create 4 in
  Keccak.hash_cols_into ~rows:4 ~cols:1 (Nocap_vec.Fv.of_array elems) ~dst:leaf;
  Alcotest.(check string) "packing is 8 LE bytes per element"
    (hex (Keccak_oracle.sha3_256 buf))
    (hex (Keccak.digest_at leaf 0))

let test_transcript_determinism () =
  let run () =
    let t = Transcript.create "test" in
    Transcript.absorb_gf t "v" [| Gf.of_int 5; Gf.of_int 6 |];
    Transcript.absorb_int t "n" 42;
    let c1 = Transcript.challenge_gf t "alpha" in
    let c2 = Transcript.challenge_gf t "beta" in
    (c1, c2)
  in
  let a1, a2 = run () and b1, b2 = run () in
  Alcotest.(check bool) "deterministic" true (Gf.equal a1 b1 && Gf.equal a2 b2);
  Alcotest.(check bool) "distinct challenges" false (Gf.equal a1 a2)

let test_transcript_divergence () =
  (* Different absorbed data must give different challenges. *)
  let c_of data =
    let t = Transcript.create "test" in
    Transcript.absorb_gf t "v" data;
    Transcript.challenge_gf t "alpha"
  in
  let c1 = c_of [| Gf.of_int 5 |] and c2 = c_of [| Gf.of_int 6 |] in
  Alcotest.(check bool) "divergent" false (Gf.equal c1 c2);
  (* Labels matter too. *)
  let t1 = Transcript.create "a" and t2 = Transcript.create "b" in
  Alcotest.(check bool) "domain separation" false
    (Gf.equal (Transcript.challenge_gf t1 "x") (Transcript.challenge_gf t2 "x"))

let test_challenge_indices () =
  let t = Transcript.create "ix" in
  let ix = Transcript.challenge_indices t "q" ~bound:100 ~count:189 in
  Alcotest.(check int) "count" 189 (Array.length ix);
  Array.iter (fun i -> Alcotest.(check bool) "in range" true (i >= 0 && i < 100)) ix

let prop_challenges_canonical =
  QCheck.Test.make ~count:50 ~name:"transcript challenges are canonical field elements"
    QCheck.small_string
    (fun s ->
      let t = Transcript.create "prop" in
      Transcript.absorb_bytes t "data" (Bytes.of_string s);
      Gf.is_canonical (Gf.to_int64 (Transcript.challenge_gf t "c")))

(* --- batched transcript vs the one-at-a-time oracle ------------------------ *)

type op =
  | Absorb_bytes of string * string
  | Absorb_gf of string * Gf.t array
  | Absorb_fv of string * Gf.t array
  | Absorb_int of string * int
  | Absorb_digest of string * string
  | Challenge of string
  | Challenge_vec of string * int
  | Indices of string * int * int (* bound, count *)

let show_op = function
  | Absorb_bytes (l, d) -> Printf.sprintf "absorb_bytes %S (%d bytes)" l (String.length d)
  | Absorb_gf (l, a) -> Printf.sprintf "absorb_gf %S (%d)" l (Array.length a)
  | Absorb_fv (l, a) -> Printf.sprintf "absorb_fv %S (%d)" l (Array.length a)
  | Absorb_int (l, n) -> Printf.sprintf "absorb_int %S %d" l n
  | Absorb_digest (l, _) -> Printf.sprintf "absorb_digest %S" l
  | Challenge l -> Printf.sprintf "challenge_gf %S" l
  | Challenge_vec (l, n) -> Printf.sprintf "challenge_gf_vec %S %d" l n
  | Indices (l, b, c) -> Printf.sprintf "challenge_indices %S ~bound:%d ~count:%d" l b c

(* Labels up to 120 bytes, so a challenge mix ([state ^ "ch:" ^ label])
   sometimes spans two rate blocks. *)
let gen_case =
  let open QCheck.Gen in
  let label = string_size ~gen:printable (int_range 0 120) in
  let gf = map (fun x -> Gf.of_int64 x) ui64 in
  let op =
    frequency
      [
        (2, map2 (fun l d -> Absorb_bytes (l, d)) label (string_size (int_range 0 300)));
        (2, map2 (fun l a -> Absorb_gf (l, a)) label (array_size (int_range 0 40) gf));
        (1, map2 (fun l a -> Absorb_fv (l, a)) label (array_size (int_range 0 40) gf));
        (1, map2 (fun l n -> Absorb_int (l, n)) label (oneof [ int; small_signed_int ]));
        (1, map2 (fun l d -> Absorb_digest (l, d)) label (string_size (return 32)));
        (2, map (fun l -> Challenge l) label);
        (2, map2 (fun l n -> Challenge_vec (l, n)) label (int_range 0 300));
        ( 2,
          map3
            (fun l b c -> Indices (l, b, c))
            label
            (oneof [ int_range 1 300; int_range 1 (1 lsl 40) ])
            (int_range 0 300) );
      ]
  in
  triple (string_size ~gen:printable (int_range 0 20)) (list_size (int_range 1 8) op)
    (opt (int_range 0 400))

let print_case (domain, ops, reject) =
  Printf.sprintf "domain %S, reject %s:\n  %s" domain
    (Option.fold ~none:"none" ~some:string_of_int reject)
    (String.concat "\n  " (List.map show_op ops))

(* Every op on both transcripts; every result, the state after it and the
   hash count must agree. With [reject = Some k] both run under
   [Transcript.with_rejected_squeeze k], so the challenge drawing squeeze k
   takes the batched sampler's rewind path. *)
let run_case (domain, ops, reject) =
  let t = Transcript.create domain and o = Transcript_oracle.create domain in
  let ( =! ) what ok = if not ok then QCheck.Test.fail_reportf "%s differs" what in
  let step op =
    (match op with
    | Absorb_bytes (l, d) ->
      Transcript.absorb_bytes t l (Bytes.of_string d);
      Transcript_oracle.absorb_bytes o l (Bytes.of_string d)
    | Absorb_gf (l, a) ->
      Transcript.absorb_gf t l a;
      Transcript_oracle.absorb_gf o l a
    | Absorb_fv (l, a) ->
      Transcript.absorb_fv t l (Nocap_vec.Fv.of_array a);
      Transcript_oracle.absorb_gf o l a
    | Absorb_int (l, n) ->
      Transcript.absorb_int t l n;
      Transcript_oracle.absorb_int o l n
    | Absorb_digest (l, d) ->
      Transcript.absorb_digest t l d;
      Transcript_oracle.absorb_digest o l d
    | Challenge l ->
      show_op op =! Gf.equal (Transcript.challenge_gf t l) (Transcript_oracle.challenge_gf o l)
    | Challenge_vec (l, n) ->
      show_op op
      =! (Transcript.challenge_gf_vec t l n = Transcript_oracle.challenge_gf_vec o l n)
    | Indices (l, bound, count) ->
      show_op op
      =! (Transcript.challenge_indices t l ~bound ~count
         = Transcript_oracle.challenge_indices o l ~bound ~count));
    ("state after " ^ show_op op) =! String.equal (Transcript.state t) (Transcript_oracle.state o);
    ("hash_count after " ^ show_op op)
    =! (Transcript.hash_count t = Transcript_oracle.hash_count o)
  in
  let run () = List.iter step ops in
  (match reject with None -> run () | Some k -> Transcript.with_rejected_squeeze k run);
  true

let prop_transcript_vs_oracle (leg : Test_native.leg) ~count =
  QCheck.Test.make ~count
    ~name:(Printf.sprintf "transcript = one-at-a-time oracle [%s]" leg.name)
    (QCheck.make ~print:print_case gen_case)
    (fun case -> leg.run (fun () -> run_case case))

(* The forced rejection really reaches the rewind: squeeze 5 is the sixth
   challenge's, so that challenge and every one after it move, and the
   transcript spends exactly one more squeeze. *)
let test_rejected_squeeze_hook () =
  let draw () =
    let t = Transcript.create "reject" in
    let v = Transcript.challenge_gf_vec t "v" 10 in
    (v, Transcript.hash_count t)
  in
  let v, h = draw () in
  let v', h' = Transcript.with_rejected_squeeze 5 draw in
  Alcotest.(check bool) "challenges 0-4 kept" true (Array.sub v 0 5 = Array.sub v' 0 5);
  Alcotest.(check bool) "challenge 5 redrawn" false (Gf.equal v.(5) v'.(5));
  Alcotest.(check int) "one extra squeeze" (h + 1) h';
  Alcotest.(check bool) "hook restored" true (Transcript.rejected_squeeze () = None)

let suite =
  [
    Alcotest.test_case "SHA3-256 known answers" `Quick test_sha3_kats;
    Alcotest.test_case "rate boundaries" `Quick test_rate_boundaries;
    Alcotest.test_case "node compression" `Quick test_node;
    Alcotest.test_case "column leaf packing" `Quick test_leaf_packing;
    Alcotest.test_case "transcript determinism" `Quick test_transcript_determinism;
    Alcotest.test_case "transcript divergence" `Quick test_transcript_divergence;
    Alcotest.test_case "challenge indices" `Quick test_challenge_indices;
    QCheck_alcotest.to_alcotest prop_challenges_canonical;
    Alcotest.test_case "rejected squeeze hook" `Quick test_rejected_squeeze_hook;
  ]
  @ List.map
      (fun leg -> QCheck_alcotest.to_alcotest (prop_transcript_vs_oracle leg ~count:60))
      Test_native.legs
