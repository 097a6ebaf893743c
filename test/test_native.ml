(* Equivalence suite for the native (C) kernel layer: every stub is checked,
   in every SIMD tier, against its reference in test/oracle — QCheck over
   raw 64-bit patterns (including non-canonical residues >= p) for the
   field kernels, exhaustive message lengths across the sponge rate
   boundaries for the hashes, offset/sub-view torture for the in-place
   permutation and the column sponges, and a full-pipeline proof-byte
   golden across the three tiers and domain counts 1/2/3.

   The kernels are bit-exact by construction (the C follows the Gf
   formulas operation for operation), so every comparison here is for raw
   equality, not "equal mod p". *)

module Native = Nocap_native.Native
module Fv = Nocap_vec.Fv
module Gf = Zk_field.Gf
module Rng = Zk_util.Rng
module Keccak = Zk_hash.Keccak
module Gf_fv = Zk_ntt.Ntt.Gf_fv
module Rs = Zk_ecc.Reed_solomon
module Pool = Nocap_parallel.Pool
module Builder = Zk_r1cs.Builder
module Gadgets = Zk_r1cs.Gadgets
module Spartan = Zk_spartan.Spartan

let p_int64 = 0xFFFF_FFFF_0000_0001L

(* What the kernels run before any test hook or engine call: taken while
   the test program initialises, ahead of every suite. *)
let startup_mode = Native.mode ()
let startup_lanes = Native.keccak_lanes ()
let startup_node_grain = Keccak.node_grain ()

(* The kernel legs: the portable scalar C bodies ([Native.with_scalar_c]),
   the AVX2 tier ([Native.with_avx2_only]: the 4-lane Keccak under the
   flat Merkle kernels) and the best SIMD the CPU has (no hook: the 8-lane
   AVX-512F Keccak where present). Every check compares each leg against
   a reference from test/oracle. On a host without a tier its leg
   degrades to the next one down — the check still runs, and "SIMD tiers
   reached" says which tiers did. *)
type leg = { name : string; run : 'a. (unit -> 'a) -> 'a }

let scalar = { name = "scalar"; run = (fun f -> Native.with_scalar_c f) }
let avx2 = { name = "avx2"; run = (fun f -> Native.with_avx2_only f) }
let best = { name = "best"; run = (fun f -> f ()) }
let legs = [ scalar; avx2; best ]

(* The widest tier the CPU has, and its Merkle-kernel lane count. *)
let widest =
  if Native.have_avx512f () then (Native.Avx512f, 8)
  else if Native.have_avx2 () then (Native.Avx2, 4)
  else if Native.have_neon () then (Native.Neon, 1)
  else (Native.Scalar, 1)

(* From process start, with no hook or engine call before, the kernels run
   the widest tier: the C level starts at the top. The Merkle node grain
   is priced by the lane count that runs, so on a SIMD host it is the x8
   or x4 group grain, not the scalar body's. *)
let test_startup_tier () =
  let mode, lanes = widest in
  Alcotest.(check string) "tier at startup" (Native.mode_to_string mode)
    (Native.mode_to_string startup_mode);
  Alcotest.(check int) "Keccak lanes at startup" lanes startup_lanes;
  Alcotest.(check int) "node grain at startup = best tier's" (best.run Keccak.node_grain)
    startup_node_grain;
  if lanes > 1 then
    Alcotest.(check bool) "node grain at startup is a SIMD group's" true
      (startup_node_grain > scalar.run Keccak.node_grain)

(* test/dune reruns this suite under NOCAP_DOMAINS=1 and =3, and
   test_main installs the environment's engine before any suite runs, so
   every kernel check here runs on a pool of that size. A rerun that kept
   the host-sized pool would repeat the main run, so pin the size. *)
let test_env_pool_size () =
  let expected =
    match Sys.getenv_opt "NOCAP_DOMAINS" with
    | Some v -> int_of_string (String.trim v)
    | None -> max 1 (min 128 (Domain.recommended_domain_count ()))
  in
  Alcotest.(check int) "pool size" expected (Pool.default_domains ())

(* Each leg's Merkle-kernel width is the tier it claims, or the next one
   down where the CPU lacks it. *)
let test_tiers_reached () =
  let lanes (l : leg) = l.run Native.keccak_lanes in
  let x4 = if Native.have_avx2 () then 4 else 1 in
  Alcotest.(check int) "scalar" 1 (lanes scalar);
  Alcotest.(check string) "scalar tier" "scalar"
    (Native.mode_to_string (scalar.run Native.mode));
  Alcotest.(check int) "avx2" x4 (lanes avx2);
  Alcotest.(check int) "best" (snd widest) (lanes best);
  Printf.printf "SIMD tiers reached (cpu %s): scalar C, %s, %s\n"
    (Native.features_to_string ())
    (if x4 = 4 then "x4 (AVX2)" else "x4 skipped: CPU has no AVX2")
    (if Native.have_avx512f () then "x8 (AVX-512F)" else "x8 skipped: CPU has no AVX-512F")

(* A Merkle level's pool grain is priced by the lane count that runs: a
   one-lane quad (the scalar C body) costs four permutations, more than one
   x4 call, so a claim holds fewer nodes. *)
let test_node_grain_by_tier () =
  let grain (l : leg) = l.run Keccak.node_grain in
  if Native.have_avx2 () then
    Alcotest.(check bool) "scalar grain < avx2 grain" true (grain scalar < grain avx2)
  else Alcotest.(check int) "no AVX2: one tier" (grain scalar) (grain avx2)

let check_legs name ~expected (f : unit -> string) =
  List.iter
    (fun l -> Alcotest.(check string) (Printf.sprintf "%s [%s]" name l.name) expected (l.run f))
    legs

(* --- raw 64-bit generators ---------------------------------------------- *)

(* Any bit pattern, with the reduction-boundary neighbourhood over-weighted:
   0, 1, eps, p-1, p, p+1, all-ones. The kernels must agree with the OCaml
   formulas even on non-canonical inputs (the call sites never
   canonicalize first). *)
let gen_raw64 =
  QCheck.Gen.(
    frequency
      [
        ( 2,
          oneofl
            [
              0L; 1L; 0xFFFF_FFFFL; 0xFFFF_FFFF_0000_0000L; p_int64;
              0xFFFF_FFFF_0000_0002L; Int64.minus_one;
            ] );
        ( 5,
          map2
            (fun hi lo ->
              Int64.logor
                (Int64.shift_left (Int64.of_int hi) 48)
                (Int64.logand (Int64.of_int lo) 0xFFFF_FFFF_FFFFL))
            (int_range 0 0xFFFF) (int_range 0 max_int) );
      ])

let arb_raw_vec =
  let gen =
    QCheck.Gen.(int_range 0 70 >>= fun n -> array_repeat n gen_raw64)
  in
  QCheck.make ~print:(fun a -> Printf.sprintf "<%d raw words>" (Array.length a)) gen

let arb_raw_vec_pair =
  let gen =
    QCheck.Gen.(
      int_range 0 70 >>= fun n ->
      pair (array_repeat n gen_raw64) (array_repeat n gen_raw64))
  in
  QCheck.make
    ~print:(fun (a, _) -> Printf.sprintf "<2 x %d raw words>" (Array.length a))
    gen

(* Gf.t = int64, so raw patterns go straight into an Fv. *)
let fv_of_raw (a : int64 array) =
  let v = Fv.create (Array.length a) in
  Array.iteri (Fv.set v) a;
  v

let fv_raw_eq a b =
  Fv.length a = Fv.length b
  &&
  let ok = ref true in
  for i = 0 to Fv.length a - 1 do
    if not (Int64.equal (Fv.get a i) (Fv.get b i)) then ok := false
  done;
  !ok

let random_fill rng v =
  for i = 0 to Fv.length v - 1 do
    Fv.set v i (Gf.random rng)
  done

(* --- Goldilocks scalar + elementwise kernels ----------------------------- *)

let prop_elementwise =
  QCheck.Test.make ~count:300 ~name:"native fv add/sub/mul/scale/axpy vs OCaml on raw bit patterns"
    arb_raw_vec_pair (fun (ra, rb) ->
      let n = Array.length ra in
      let a = fv_of_raw ra and b = fv_of_raw rb in
      let s = if n = 0 then 0L else ra.(0) in
      let run op =
        let dst = Fv.create n in
        op dst;
        dst
      in
      let axpy axpy_into dst =
        Fv.blit ~src:b ~src_pos:0 ~dst ~dst_pos:0 ~len:n;
        axpy_into ~dst s a
      in
      let ops =
        [
          ("add", (fun dst -> Fv_oracle.add_into ~dst a b), fun dst -> Fv.add_into ~dst a b);
          ("sub", (fun dst -> Fv_oracle.sub_into ~dst a b), fun dst -> Fv.sub_into ~dst a b);
          ("mul", (fun dst -> Fv_oracle.mul_into ~dst a b), fun dst -> Fv.mul_into ~dst a b);
          ( "scale",
            (fun dst -> Fv_oracle.scale_into ~dst a s),
            fun dst -> Fv.scale_into ~dst a s );
          ("axpy", axpy Fv_oracle.axpy_into, axpy Fv.axpy_into);
        ]
      in
      List.for_all
        (fun (name, oracle, kernel) ->
          let expected = run oracle in
          List.for_all
            (fun m ->
              fv_raw_eq expected (m.run (fun () -> run kernel))
              || QCheck.Test.fail_reportf "%s diverged under %s" name m.name)
            legs)
        ops)

(* --- NTT / RS encode ----------------------------------------------------- *)

(* The flat transforms in every leg against the boxed [Gf_ntt]: forward
   equals its forward, and the inverse takes it back to the input. *)
let test_ntt_equiv () =
  let rng = Rng.create 0xA11CEL in
  List.iter
    (fun log_n ->
      let n = 1 lsl log_n in
      let plan = Gf_fv.plan n in
      let input = Array.init n (fun _ -> Gf.random rng) in
      let expected = Zk_ntt.Ntt.Gf_ntt.forward_copy (Zk_ntt.Ntt.Gf_ntt.plan n) input in
      List.iter
        (fun m ->
          let buf = Fv.of_array input in
          m.run (fun () -> Gf_fv.forward plan buf);
          Alcotest.(check (array int64))
            (Printf.sprintf "forward n=%d [%s]" n m.name)
            expected (Fv.to_array buf);
          m.run (fun () -> Gf_fv.inverse plan buf);
          Alcotest.(check (array int64))
            (Printf.sprintf "roundtrip n=%d [%s]" n m.name)
            input (Fv.to_array buf))
        legs)
    [ 0; 1; 2; 3; 5; 8; 10 ]

(* A code's row encoder against the boxed oracle in every leg, at sizes on
   both sides of the expander's RS base case (32). The message and codeword
   are views [offset] lanes into one buffer, so with an odd offset they
   (and the expander's scratch in the codeword's tail) start off any 32-
   or 64-byte boundary. The codeword is pre-filled with garbage to catch a
   missing zero-pad. Returns each message with its oracle codeword. *)
let check_encode_row (module Code : Zk_ecc.Linear_code.S) seed =
  let rng = Rng.create seed in
  List.map
    (fun (cols, offset) ->
      let code_len = Code.blowup * cols in
      let msg = Array.init cols (fun _ -> Gf.random rng) in
      let expected = Ecc_oracle.encode (module Code) msg in
      let encode (leg : leg) =
        leg.run (fun () ->
            let buf = Fv.create (offset + cols + code_len) in
            let src = Fv.sub_view buf ~pos:offset ~len:cols
            and dst = Fv.sub_view buf ~pos:(offset + cols) ~len:code_len in
            Fv.blit ~src:(Fv.of_array msg) ~src_pos:0 ~dst:src ~dst_pos:0 ~len:cols;
            Fv.fill dst (Gf.of_int 0x5A5A5A);
            Code.encode_row_into ~src ~dst;
            Fv.to_array dst)
      in
      List.iter
        (fun m ->
          Alcotest.(check (array int64))
            (Printf.sprintf "%s encode_row_into cols=%d offset=%d [%s]" Code.name cols offset
               m.name)
            expected (encode m))
        legs;
      (msg, expected))
    [ (1, 0); (2, 1); (8, 0); (32, 0); (32, 3); (64, 0); (64, 1); (128, 5); (256, 0) ]

(* RS in every leg, and the raw fused stub (garbage-filled codeword)
   against the same oracle codewords. *)
let test_rs_encode_row () =
  List.iter
    (fun (msg, expected) ->
      let cols = Array.length msg in
      let code_len = Rs.blowup * cols in
      let dst_raw = Fv.create code_len in
      Fv.fill dst_raw (Gf.of_int 0x5A5A5A);
      Native.rs_encode_row (Fv.of_array msg) dst_raw (Gf_fv.twiddles (Gf_fv.plan code_len));
      Alcotest.(check (array int64))
        (Printf.sprintf "rs_encode_row raw cols=%d" cols)
        expected (Fv.to_array dst_raw))
    (check_encode_row (module Rs) 0x5EEDL)

(* The expander's recursion bottoms out in the RS kernel at 32 and runs its
   graph products on arena scratch above that. *)
let test_expander_encode_row () =
  ignore (check_encode_row (module Zk_ecc.Expander) 0xE5EEDL)

(* Rows of one flat buffer transformed in place through row views, odd row
   counts included, against the boxed [Gf_ntt] per row: the C kernel reads
   each row from a base pointer inside the buffer. *)
let test_ntt_rows_equiv () =
  let rng = Rng.create 0xB0B5L in
  List.iter
    (fun (rows, cols) ->
      let plan = Gf_fv.plan cols in
      let flat = Fv.create (rows * cols) in
      random_fill rng flat;
      let run (leg : leg) =
        let buf = Fv.copy flat in
        leg.run (fun () ->
            for r = 0 to rows - 1 do
              Gf_fv.forward plan (Fv.sub_view buf ~pos:(r * cols) ~len:cols)
            done);
        buf
      in
      let expected = Fv.copy flat in
      for r = 0 to rows - 1 do
        let row = Fv.to_array (Fv.sub_view flat ~pos:(r * cols) ~len:cols) in
        Fv.blit
          ~src:(Fv.of_array (Zk_ntt.Ntt.Gf_ntt.forward_copy (Zk_ntt.Ntt.Gf_ntt.plan cols) row))
          ~src_pos:0 ~dst:expected ~dst_pos:(r * cols) ~len:cols
      done;
      List.iter
        (fun m ->
          Alcotest.(check bool)
            (Printf.sprintf "row views %dx%d [%s]" rows cols
               m.name)
            true
            (fv_raw_eq expected (run m)))
        legs)
    [ (1, 64); (3, 32); (7, 128); (16, 16) ]

(* --- Keccak / SHA3 ------------------------------------------------------- *)

(* Every length from the empty message across both rate boundaries (one
   block = 136 bytes), against the boxed sponge: exercises the padding
   byte landing in every lane position, including the rem = rate case. *)
let test_sha3_all_lengths () =
  for len = 0 to 300 do
    let msg = Bytes.init len (fun i -> Char.chr ((i * 37 + len) land 0xff)) in
    check_legs
      (Printf.sprintf "sha3_256 len=%d" len)
      ~expected:(Keccak_oracle.sha3_256 msg)
      (fun () -> Keccak.sha3_256 msg)
  done;
  (* FIPS 202 known answers pin the absolute value, not just agreement. *)
  Alcotest.(check string)
    "sha3(\"\")" "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"
    (Keccak.to_hex (Keccak.sha3_256 Bytes.empty));
  Alcotest.(check string)
    "sha3(\"abc\")" "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"
    (Keccak.to_hex (Keccak.sha3_256 (Bytes.of_string "abc")))

(* Every leg's sha3_256 against the boxed sponge ([Keccak_oracle]) around
   one, two and three rate blocks: rem = rate - 1 puts the 0x06 and 0x80
   pad bits in one byte, rem = 0 adds a whole padding block. *)
let test_sha3_vs_sponge_oracle () =
  let rate = Keccak_oracle.rate in
  List.iter
    (fun len ->
      let msg = Bytes.init len (fun i -> Char.chr ((i * 131 + 7) land 0xff)) in
      let expected = Keccak_oracle.sha3_256 msg in
      List.iter
        (fun l ->
          Alcotest.(check string)
            (Printf.sprintf "sha3_256 len=%d [%s]" len l.name)
            (Keccak.to_hex expected)
            (Keccak.to_hex (l.run (fun () -> Keccak.sha3_256 msg))))
        legs)
    (List.concat_map (fun k -> [ (k * rate) - 1; k * rate; (k * rate) + 1 ]) [ 1; 2; 3 ]
     @ [ 0; 1; 63; 64; 65 ])

let test_hash_nodes_into () =
  (* One flat Merkle level per node count: whole x8 and x4 groups with
     every mix of x4 and scalar tails, from a source at an odd lane offset
     (off any 32- or 64-byte boundary). Each leg must agree with the boxed
     sponge's SHA3-256 of each concatenated digest pair. *)
  let digests = Array.init 128 (fun i -> Keccak.sha3_256 (Bytes.make 5 (Char.chr i))) in
  let lanes = Fv.sub_view (Fv.create ((4 * 128) + 1)) ~pos:1 ~len:(4 * 128) in
  Array.iteri (Keccak.set_digest lanes) digests;
  List.iter
    (fun nodes ->
      let src = Fv.sub_view lanes ~pos:0 ~len:(8 * nodes) in
      let expected =
        String.concat ""
          (List.init nodes (fun i ->
               Keccak_oracle.sha3_256 (Bytes.of_string (digests.(2 * i) ^ digests.((2 * i) + 1)))))
      in
      List.iter
        (fun l ->
          let got =
            l.run (fun () ->
                let dst = Fv.create (4 * nodes) in
                Keccak.hash_nodes_into ~src ~dst;
                String.concat "" (List.init nodes (Keccak.digest_at dst)))
          in
          Alcotest.(check string) (Printf.sprintf "hash_nodes_into n=%d [%s]" nodes l.name)
            expected got)
        legs)
    [ 1; 4; 7; 8; 9; 12; 13; 16; 23; 64 ]

(* One-block messages of every length 0..135 (the 0x06 pad in every byte
   position, and sharing byte 135 with the closing 0x80 at 135), staged
   at an odd lane offset, in batches with every mix of x8 groups, x4
   groups and scalar tails: each digest must be the boxed sponge's
   SHA3-256 of its message, in every leg. [sha3_256_into] of a message
   prefix, written over the message itself, must agree too. *)
let test_sha3_blocks_into () =
  let rate = Keccak_oracle.rate in
  let message i = Bytes.init (i mod rate) (fun k -> Char.chr (((k * 29) + i) land 0xff)) in
  let block msg =
    let b = Bytes.make rate '\000' in
    Bytes.blit msg 0 b 0 (Bytes.length msg);
    let xor k v = Bytes.set_uint8 b k (Bytes.get_uint8 b k lxor v) in
    xor (Bytes.length msg) 0x06;
    xor (rate - 1) 0x80;
    b
  in
  List.iter
    (fun n ->
      let msgs = Array.init n (fun i -> message ((37 * n) + (11 * i))) in
      let src = Fv.sub_view (Fv.create ((17 * n) + 1)) ~pos:1 ~len:(17 * n) in
      Array.iteri
        (fun i m ->
          let b = block m in
          for lane = 0 to 16 do
            Fv.set src ((17 * i) + lane) (Bytes.get_int64_le b (8 * lane))
          done)
        msgs;
      let expected = String.concat "" (Array.to_list (Array.map Keccak_oracle.sha3_256 msgs)) in
      List.iter
        (fun l ->
          let got =
            l.run (fun () ->
                let dst = Fv.create (4 * n) in
                Keccak.sha3_blocks_into ~src ~dst n;
                String.concat "" (List.init n (Keccak.digest_at dst)))
          in
          Alcotest.(check string) (Printf.sprintf "sha3_blocks_into n=%d [%s]" n l.name)
            (Keccak.to_hex expected) (Keccak.to_hex got))
        legs)
    [ 0; 1; 3; 4; 5; 7; 8; 9; 12; 13; 16; 23; 136 ];
  List.iter
    (fun len ->
      let msg = Bytes.init 300 (fun k -> Char.chr ((k * 131) land 0xff)) in
      let expected = Keccak_oracle.sha3_256 (Bytes.sub msg 0 len) in
      List.iter
        (fun l ->
          let buf = Bytes.copy msg in
          l.run (fun () -> Keccak.sha3_256_into buf ~len buf);
          Alcotest.(check string) (Printf.sprintf "sha3_256_into len=%d in place [%s]" len l.name)
            (Keccak.to_hex expected)
            (Keccak.to_hex (Bytes.sub_string buf 0 32)))
        legs)
    [ 0; 31; 32; 33; 135; 136; 137; 300 ]

(* SHA3-256 of field elements packed as 8 little-endian bytes each, by
   the boxed sponge. *)
let sha3_packed a =
  let buf = Bytes.create (8 * Array.length a) in
  Array.iteri (fun i x -> Bytes.set_int64_le buf (8 * i) (Gf.to_int64 x)) a;
  Keccak_oracle.sha3_256 buf

(* Column leaves at every width mod 8 (x8 groups, an x4 group, scalar
   tails) and row counts on both sides of the 17-lane rate block; the
   offset case reads the matrix from an odd lane offset. *)
let test_hash_cols_into () =
  let rng = Rng.create 0xC015L in
  List.iter
    (fun (rows, cols, pos) ->
      let flat = Fv.sub_view (Fv.create ((rows * cols) + pos)) ~pos ~len:(rows * cols) in
      random_fill rng flat;
      let expected =
        String.concat ""
          (List.init cols (fun j ->
               sha3_packed (Array.init rows (fun r -> Fv.get flat ((r * cols) + j)))))
      in
      List.iter
        (fun l ->
          let got =
            l.run (fun () ->
                let dst = Fv.create (4 * cols) in
                Keccak.hash_cols_into ~rows ~cols flat ~dst;
                String.concat "" (List.init cols (Keccak.digest_at dst)))
          in
          Alcotest.(check string)
            (Printf.sprintf "hash_cols_into %dx%d at %d [%s]" rows cols pos l.name)
            expected got)
        legs)
    [
      (5, 3, 0); (17, 4, 0); (40, 13, 0); (2, 9, 0); (0, 5, 0); (34, 8, 0);
      (16, 9, 0); (17, 10, 0); (18, 11, 0); (34, 12, 0); (35, 13, 0); (16, 14, 0);
      (17, 15, 0); (18, 16, 0); (35, 23, 3); (34, 17, 0);
    ]

(* The FRI codeword fold in every leg, split across 1 and 3 domains (the
   length puts several pool chunks in each leg), in place and out of place,
   against the per-element verifier formula [Fri.fold_at]. *)
let test_fri_fold_block () =
  let rng = Rng.create 0xF01DL in
  let n = 40_003 in
  let lo = Fv.create n and hi = Fv.create n in
  random_fill rng lo;
  random_fill rng hi;
  let beta = Gf.random rng and x_inv = Gf.random rng and w_inv = Gf.random rng in
  let expected = Fv.create n in
  let x = ref x_inv in
  for i = 0 to n - 1 do
    Fv.set expected i (Zk_orion.Fri.fold_at ~x_inv:!x beta (Fv.get lo i) (Fv.get hi i));
    x := Gf.mul !x w_inv
  done;
  List.iter
    (fun d ->
      List.iter
        (fun l ->
          List.iter
            (fun in_place ->
              let got =
                l.run (fun () ->
                    Pool.with_domains d (fun () ->
                        let dst = if in_place then Fv.copy lo else Fv.create n in
                        let lo = if in_place then dst else lo in
                        Zk_orion.Fri.fold_block ~x_inv ~w_inv ~lo ~hi ~dst beta;
                        dst))
              in
              Alcotest.(check bool)
                (Printf.sprintf "fold_block domains=%d in_place=%b [%s]" d in_place l.name)
                true (Fv.equal expected got))
            [ false; true ])
        legs)
    [ 1; 3 ]

(* --- sumcheck round and eq table vs their oracles ------------------------ *)

module Sumcheck = Zk_sumcheck.Sumcheck

(* Canonical values with the top of the field over-weighted: p - 1 down
   to p - 8, 2^64 - 2^33 (the largest eps multiple), 0 and 1. *)
let near_p rng =
  match Rng.int rng 4 with
  | 0 -> Int64.sub p_int64 (Int64.of_int (1 + Rng.int rng 8))
  | 1 -> List.nth [ 0L; 1L; 0xFFFF_FFFE_0000_0000L ] (Rng.int rng 3)
  | _ -> Gf.random rng

let near_p_table rng n =
  let v = Fv.create n in
  for i = 0 to n - 1 do
    Fv.set v i (near_p rng)
  done;
  v

(* [Sumcheck.round_kernel] for every combiner against the
   two-pass round ([Sumcheck_oracle]: per-t lerp, vector combiner and
   sum, then a separate fold), at 1..17 pairs and powers of
   two up to past the parallel grain (the SIMD tails and the chunking),
   evaluate-only and folding (out of place and in place), in every leg.
   g and the folded halves must be bit-equal. The batch of three runs
   the shared eq table through the kernel's identity refold. *)
let test_round_kernel_vs_oracle () =
  let rng = Rng.create 0x5C0DEL in
  let sizes = List.init 17 (fun i -> i + 1) @ [ 32; 64; 256; 1024; 1025; 4096; 8192 ] in
  List.iter
    (fun (comb, vector, k) ->
      let degree = Sumcheck.degree comb in
      List.iter
        (fun h ->
          let prev = Array.init k (fun _ -> near_p_table rng (4 * h)) in
          let r = near_p rng in
          let halves t ~parts =
            let len = Fv.length t / parts in
            Array.init parts (fun q -> Fv.sub_view t ~pos:(q * len) ~len)
          in
          (* Evaluate-only over [prev] (2h pairs) and the fold of [prev]
             into 2h-entry tables followed by the round over them. *)
          let expected_eval, expected_fold, expected_dst =
            let lo = Array.map (fun t -> (halves t ~parts:2).(0)) prev in
            let hi = Array.map (fun t -> (halves t ~parts:2).(1)) prev in
            let ge = Sumcheck_oracle.round_poly ~degree ~comb:vector ~lo ~hi in
            let dst = Array.map (fun _ -> Fv.create (2 * h)) prev in
            Sumcheck_oracle.fold ~dst ~lo ~hi r;
            let gf =
              Sumcheck_oracle.round_poly ~degree ~comb:vector
                ~lo:(Array.map (fun t -> (halves t ~parts:2).(0)) dst)
                ~hi:(Array.map (fun t -> (halves t ~parts:2).(1)) dst)
            in
            (ge, gf, dst)
          in
          let same what a b =
            Alcotest.(check bool) what true (Array.for_all2 Int64.equal a b)
          in
          List.iter
            (fun l ->
              List.iter
                (fun d ->
                  let name what =
                    Printf.sprintf "%d tables, degree %d, %d pairs, %d domains, %s [%s]" k
                      degree h d what l.name
                  in
                  l.run (fun () ->
                      Pool.with_domains d (fun () ->
                          same (name "evaluate") expected_eval (Sumcheck.round_kernel comb prev);
                          let dst = Array.map (fun _ -> Fv.create (2 * h)) prev in
                          same (name "fold: g") expected_fold
                            (Sumcheck.round_kernel comb ~fold:(r, dst) prev);
                          Array.iteri
                            (fun j t ->
                              Alcotest.(check bool) (name "fold: halves") true
                                (Fv.equal expected_dst.(j) t))
                            dst;
                          let work = Array.map Fv.copy prev in
                          let dst =
                            Array.map (fun t -> Fv.sub_view t ~pos:0 ~len:(2 * h)) work
                          in
                          same (name "in-place fold: g") expected_fold
                            (Sumcheck.round_kernel comb ~fold:(r, dst) work);
                          Array.iteri
                            (fun j t ->
                              Alcotest.(check bool) (name "in-place fold: halves") true
                                (Fv.equal expected_dst.(j) t))
                            dst)))
                (if h >= 4096 then [ 1; 2 ] else [ 1 ]))
            legs)
        sizes)
    [
      (Sumcheck.Eq_abc, Sumcheck_oracle.eq_abc_vector, 4);
      (Sumcheck.Product, Sumcheck_oracle.product_vector, 2);
      (let rho = Array.init 3 (fun _ -> near_p rng) in
       (Sumcheck.Eq_abc_batch rho, Sumcheck_oracle.eq_abc_batch_vector rho, 10));
    ]

(* [Mle.eq_table_into]'s doubling on contiguous halves against the
   per-entry chain ([Mle_oracle]), for every aligned
   [(lo, len)] block at l <= 10, in every leg. *)
let test_eq_table_vs_oracle () =
  let rng = Rng.create 0xE0E0L in
  for l = 0 to 10 do
    let point = Array.init l (fun _ -> near_p rng) in
    let len = ref 1 in
    while !len <= 1 lsl l do
      let lo = ref 0 in
      while !lo < 1 lsl l do
        let expected = Fv.create !len in
        Mle_oracle.eq_table_into point ~lo:!lo expected;
        List.iter
          (fun leg ->
            let got = Fv.create !len in
            leg.run (fun () -> Zk_poly.Mle.eq_table_into point ~lo:!lo got);
            Alcotest.(check bool)
              (Printf.sprintf "l=%d lo=%d len=%d [%s]" l !lo !len leg.name)
              true (Fv.equal expected got))
          legs;
        lo := !lo + !len
      done;
      len := 2 * !len
    done
  done

(* The verifier's matrix evaluation ([Spartan.abc_eval]: one tensor-split
   [Sparse.mle_eval_split] walk per matrix) against r_abc . (the oracle's
   full-eq-table [mle_eval] of A, B, C), in every leg. Random [2^l]-square
   instances, l in 1..12: rows past a random [num_constraints] are empty,
   one column is empty in all three matrices and one is dense in A. The
   split itself is checked against the full eq table too. *)
let prop_abc_eval =
  QCheck.Test.make ~count:24 ~name:"abc_eval = r_abc . oracle mle_eval, all legs"
    (* No shrinker: shrinking would leave l's range. *)
    (QCheck.make
       ~print:(fun (l, seed) -> Printf.sprintf "l=%d seed=%d" l seed)
       QCheck.Gen.(pair (int_range 1 12) (int_range 0 100_000)))
    (fun (l, seed) ->
      let rng = Rng.create (Int64.of_int seed) in
      let n = 1 lsl l in
      let nc = Rng.int rng (n + 1) in
      let empty = Rng.int rng n and dense = Rng.int rng n in
      let matrix ~dense_col =
        let entries = ref [] in
        for r = 0 to nc - 1 do
          if dense_col then entries := (r, dense, Gf.random rng) :: !entries;
          for _ = 1 to Rng.int rng 5 do
            entries := (r, Rng.int rng n, Gf.random rng) :: !entries
          done
        done;
        Sparse_oracle.of_list ~nrows:n ~ncols:n
          (List.filter (fun (_, c, _) -> c <> empty) !entries)
      in
      let a = matrix ~dense_col:true in
      let b = matrix ~dense_col:false and c = matrix ~dense_col:false in
      let inst =
        Zk_r1cs.R1cs.make ~a ~b ~c ~log_size:l ~num_constraints:nc ~num_witness:(n / 2)
          ~num_io:1
      in
      let point () = Array.init l (fun _ -> Gf.random rng) in
      let rx = point () and ry = point () and r_abc = Array.init 3 (fun _ -> Gf.random rng) in
      let row_eq = Zk_poly.Mle.eq_fv rx and col_eq = Zk_poly.Mle.eq_fv ry in
      let expected =
        List.fold_left2
          (fun acc r m -> Gf.add acc (Gf.mul r (Sparse_oracle.mle_eval m ~row_eq ~col_eq)))
          Gf.zero (Array.to_list r_abc) [ a; b; c ]
      in
      let hi, lo, sh = Zk_poly.Mle.eq_split rx in
      let split_ok =
        Fv.length hi * Fv.length lo = n
        && Fv.length lo = 1 lsl sh
        && List.for_all
             (fun i ->
               Gf.equal (Fv.get row_eq i)
                 (Gf.mul (Fv.get hi (i lsr sh)) (Fv.get lo (i land ((1 lsl sh) - 1)))))
             (List.init n Fun.id)
      in
      (split_ok || QCheck.Test.fail_reportf "eq_split: l=%d seed=%d" l seed)
      && List.for_all
           (fun leg ->
             Gf.equal expected (leg.run (fun () -> Spartan.abc_eval inst ~rx ~ry ~r_abc))
             || QCheck.Test.fail_reportf "l=%d seed=%d constraints=%d [%s]" l seed nc leg.name)
           legs)

(* In-place permutation at arbitrary (including unaligned) lane offsets in a
   larger state bank: result and every untouched neighbour checked against a
   snapshot + the boxed 25-lane oracle ([Keccak_oracle]). *)
let test_f1600_off_torture () =
  let rng = Rng.create 0xF16L in
  let total = (25 * 4) + 7 in
  let st = Fv.create total in
  random_fill rng st;
  List.iter
    (fun off ->
      List.iter
        (fun m ->
          let snapshot = Fv.copy st in
          let oracle = Array.init 25 (fun i -> Fv.get st (off + i)) in
          Keccak_oracle.keccak_f1600 oracle;
          m.run (fun () -> Native.f1600_off st off);
          for i = 0 to total - 1 do
            let expected =
              if i >= off && i < off + 25 then oracle.(i - off) else Fv.get snapshot i
            in
            Alcotest.(check int64)
              (Printf.sprintf "f1600_off off=%d lane=%d [%s]" off i
                 m.name)
              expected (Fv.get st i)
          done)
        legs)
    [ 0; 7; 25; 52; 75 ]

(* The raw C permutation against the boxed oracle on arbitrary 25-lane
   states, in every leg (SIMD dispatch still runs the scalar body for a
   single state). *)
let arb_state =
  QCheck.make
    ~print:(fun a -> String.concat " " (Array.to_list (Array.map (Printf.sprintf "%Lx") a)))
    QCheck.Gen.(array_repeat 25 gen_raw64)

let prop_f1600_vs_ocaml =
  QCheck.Test.make ~count:200 ~name:"native f1600_off vs boxed oracle on random states"
    arb_state (fun lanes ->
      let expected = Array.copy lanes in
      Keccak_oracle.keccak_f1600 expected;
      let expected = fv_of_raw expected in
      List.for_all
        (fun m ->
          let got = fv_of_raw lanes in
          m.run (fun () -> Native.f1600_off got 0);
          fv_raw_eq expected got)
        legs)

(* Known answer: Keccak-f[1600] of the all-zero state (the Keccak team's
   published intermediate values), lanes 0 and 1. *)
let test_f1600_zero_kat () =
  let check name permute =
    let st = Fv.create 25 in
    Fv.zero st;
    permute st;
    Alcotest.(check (pair int64 int64))
      ("zero-state lanes 0-1 " ^ name)
      (0xF1258F7940E1DDE7L, 0x84D5CCF933C0478AL)
      (Fv.get st 0, Fv.get st 1)
  in
  check "[oracle]" (fun st ->
      let lanes = Array.init 25 (Fv.get st) in
      Keccak_oracle.keccak_f1600 lanes;
      Array.iteri (Fv.set st) lanes);
  List.iter
    (fun m ->
      check
        (Printf.sprintf "[%s]" m.name)
        (fun st -> m.run (fun () -> Native.f1600_off st 0)))
    legs

(* Column sponges driven through irregular absorb chunks (splitting rows at
   non-multiples of the 17-lane rate and columns mid-range), each chunk a
   sub-view holding just its rows of a misaligned matrix, against the
   boxed sponge of each packed column. *)
let test_col_hash_torture () =
  let rng = Rng.create 0xC01L in
  let rows = 40 and cols = 13 in
  let big = Fv.create ((rows * cols) + 5) in
  random_fill rng big;
  let flat = Fv.sub_view big ~pos:5 ~len:(rows * cols) in
  let expected =
    Array.init cols (fun j -> sha3_packed (Array.init rows (fun r -> Fv.get flat ((r * cols) + j))))
  in
  let splits = [ 0; 1; 4; 16; 17; 18; 34; rows ] in
  List.iter
    (fun m ->
      let digests =
        m.run (fun () ->
            let t = Keccak.Col_hash.create cols in
            let rec go = function
              | lo :: (hi :: _ as rest) ->
                let rows = Fv.sub_view flat ~pos:(lo * cols) ~len:((hi - lo) * cols) in
                Keccak.Col_hash.absorb t rows ~row_stride:cols ~r_lo:lo ~r_hi:hi ~c_lo:0
                  ~c_hi:5;
                Keccak.Col_hash.absorb t rows ~row_stride:cols ~r_lo:lo ~r_hi:hi ~c_lo:5
                  ~c_hi:cols;
                go rest
              | _ -> ()
            in
            go splits;
            let out = Fv.create (4 * cols) in
            Keccak.Col_hash.finalize t ~total_rows:rows ~c_lo:0 ~c_hi:cols out;
            Array.init cols (Keccak.digest_at out))
      in
      Array.iteri
        (fun j d ->
          Alcotest.(check string)
            (Printf.sprintf "col_hash col=%d [%s]" j m.name)
            expected.(j) d)
        digests)
    legs

(* --- full-pipeline proof golden ------------------------------------------ *)

let golden_circuit () =
  let b = Builder.create () in
  let x = Builder.witness b (Gf.of_int 3) in
  let y = Builder.witness b (Gf.of_int 5) in
  let cur = ref x in
  for _ = 1 to 8 do
    cur := Gadgets.mul b !cur y
  done;
  let out = Builder.input b (Builder.value b !cur) in
  Gadgets.assert_equal b (Builder.lc_var !cur) (Builder.lc_var out);
  Builder.finalize b

(* The acceptance pin: proof bytes are identical under scalar C, the AVX2
   tier and the best SIMD tier, for domain counts 1, 2 and 3 — the kernels
   never leak into the transcript. *)
let test_proof_bytes_invariant () =
  let inst, asn = golden_circuit () in
  let prove_bytes (leg : leg) d =
    leg.run (fun () ->
        Pool.with_domains d (fun () ->
            let proof, _ = Spartan.prove Spartan.test_params inst asn in
            Spartan.proof_to_bytes proof))
  in
  let reference = prove_bytes scalar 1 in
  List.iter
    (fun d ->
      List.iter
        (fun m ->
          Alcotest.(check bool)
            (Printf.sprintf "proof bytes domains=%d [%s]" d m.name)
            true
            (Bytes.equal reference (prove_bytes m d)))
        legs)
    [ 1; 2; 3 ]

let suite =
  [
    Alcotest.test_case "widest SIMD tier from startup" `Quick test_startup_tier;
    Alcotest.test_case "pool size follows NOCAP_DOMAINS" `Quick test_env_pool_size;
    Alcotest.test_case "SIMD tiers reached" `Quick test_tiers_reached;
    Alcotest.test_case "Merkle node grain follows the lane count" `Quick test_node_grain_by_tier;
    QCheck_alcotest.to_alcotest prop_elementwise;
    Alcotest.test_case "NTT forward/inverse vs boxed Gf_ntt, all sizes" `Quick test_ntt_equiv;
    Alcotest.test_case "row-batched NTT vs boxed Gf_ntt" `Quick test_ntt_rows_equiv;
    Alcotest.test_case "RS row encode vs oracle + raw fused stub" `Quick test_rs_encode_row;
    Alcotest.test_case "expander row encode vs oracle" `Quick test_expander_encode_row;
    Alcotest.test_case "sha3 lengths 0..300 vs boxed sponge, all tiers + FIPS" `Quick
      test_sha3_all_lengths;
    Alcotest.test_case "sha3_256 vs boxed sponge oracle" `Quick test_sha3_vs_sponge_oracle;
    Alcotest.test_case "hash_nodes_into across tiers" `Quick test_hash_nodes_into;
    Alcotest.test_case "hash_cols_into across tiers" `Quick test_hash_cols_into;
    Alcotest.test_case "sha3_blocks_into + sha3_256_into vs boxed sponge oracle" `Quick
      test_sha3_blocks_into;
    Alcotest.test_case "FRI fold_block across tiers and splits" `Quick test_fri_fold_block;
    Alcotest.test_case "sumcheck round kernel vs two-pass oracle" `Quick
      test_round_kernel_vs_oracle;
    Alcotest.test_case "eq_table_into vs per-entry oracle, every block" `Quick
      test_eq_table_vs_oracle;
    QCheck_alcotest.to_alcotest prop_abc_eval;
    Alcotest.test_case "f1600_off offset torture" `Quick test_f1600_off_torture;
    QCheck_alcotest.to_alcotest prop_f1600_vs_ocaml;
    Alcotest.test_case "f1600 zero-state KAT" `Quick test_f1600_zero_kat;
    Alcotest.test_case "Col_hash chunked absorb torture" `Quick test_col_hash_torture;
    Alcotest.test_case "proof bytes invariant: tiers x domains" `Quick test_proof_bytes_invariant;
  ]
