module Pool = Nocap_parallel.Pool
module Fv = Nocap_vec.Fv
module Gf = Zk_field.Gf
module Native = Nocap_native.Native

type digest = string

let digest_length = 32

let round_constants =
  [|
    0x0000000000000001L; 0x0000000000008082L; 0x800000000000808AL;
    0x8000000080008000L; 0x000000000000808BL; 0x0000000080000001L;
    0x8000000080008081L; 0x8000000000008009L; 0x000000000000008AL;
    0x0000000000000088L; 0x0000000080008009L; 0x000000008000000AL;
    0x000000008000808BL; 0x800000000000008BL; 0x8000000000008089L;
    0x8000000000008003L; 0x8000000000008002L; 0x8000000000000080L;
    0x000000000000800AL; 0x800000008000000AL; 0x8000000080008081L;
    0x8000000000008080L; 0x0000000080000001L; 0x8000000080008008L;
  |]

(* rho rotation offsets, indexed x + 5*y. *)
let rotations =
  [|
    0; 1; 62; 28; 27;
    36; 44; 6; 55; 20;
    3; 10; 43; 25; 39;
    41; 45; 15; 21; 8;
    18; 2; 61; 56; 14;
  |]

let[@inline] rotl64 x n =
  if n = 0 then x
  else Int64.logor (Int64.shift_left x n) (Int64.shift_right_logical x (64 - n))

let rate_bytes = 136 (* SHA3-256: capacity 512 bits *)
let rate_lanes = 17 (* 136 / 8 *)

(* --- unboxed sponge ----------------------------------------------------- *)

(* The sponge keeps its 25-lane state plus the theta/chi scratch in
   Bigarray-backed vectors: [int64 array] lanes would be boxed, a box per
   lane write, while these run on flat int64 with no heap traffic. One
   scratch record lives per domain, so batched hashing splits across the
   pool without sharing. *)

type scratch = { st : Fv.t; b : Fv.t; c : Fv.t }

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { st = Fv.create 25; b = Fv.create 25; c = Fv.create 5 })

(* Permute the 25 lanes at [st.(off .. off + 24)]. The offset form lets
   {!Col_hash} keep one sponge state per matrix column in a single flat
   bank and permute them in place. Under the native layer the C permutation
   runs instead (bit-identical; [b]/[c] scratch is unused there). *)
let f1600_off_ocaml st off b c =
  for round = 0 to 23 do
    (* theta *)
    for x = 0 to 4 do
      Fv.unsafe_set c x
        (Int64.logxor (Fv.unsafe_get st (off + x))
           (Int64.logxor
              (Fv.unsafe_get st (off + x + 5))
              (Int64.logxor
                 (Fv.unsafe_get st (off + x + 10))
                 (Int64.logxor
                    (Fv.unsafe_get st (off + x + 15))
                    (Fv.unsafe_get st (off + x + 20))))))
    done;
    for x = 0 to 4 do
      let d =
        Int64.logxor
          (Fv.unsafe_get c ((x + 4) mod 5))
          (rotl64 (Fv.unsafe_get c ((x + 1) mod 5)) 1)
      in
      for y = 0 to 4 do
        Fv.unsafe_set st (off + x + (5 * y))
          (Int64.logxor (Fv.unsafe_get st (off + x + (5 * y))) d)
      done
    done;
    (* rho + pi *)
    for x = 0 to 4 do
      for y = 0 to 4 do
        let src = x + (5 * y) in
        let dst = y + (5 * (((2 * x) + (3 * y)) mod 5)) in
        Fv.unsafe_set b dst (rotl64 (Fv.unsafe_get st (off + src)) (Array.unsafe_get rotations src))
      done
    done;
    (* chi *)
    for y = 0 to 4 do
      for x = 0 to 4 do
        Fv.unsafe_set st (off + x + (5 * y))
          (Int64.logxor
             (Fv.unsafe_get b (x + (5 * y)))
             (Int64.logand
                (Int64.lognot (Fv.unsafe_get b (((x + 1) mod 5) + (5 * y))))
                (Fv.unsafe_get b (((x + 2) mod 5) + (5 * y)))))
      done
    done;
    (* iota *)
    Fv.unsafe_set st off (Int64.logxor (Fv.unsafe_get st off) (Array.unsafe_get round_constants round))
  done

let f1600_off st off b c =
  if Native.on () then Native.f1600_off st off else f1600_off_ocaml st off b c

let f1600 { st; b; c } = f1600_off st 0 b c

let[@inline] xor_lane st lane v = Fv.unsafe_set st lane (Int64.logxor (Fv.unsafe_get st lane) v)

(* Full-rate absorption reads whole little-endian lanes straight out of the
   source buffer — no per-byte loop, no division per byte, no staging copy. *)
let absorb_full_block st (msg : bytes) off =
  for lane = 0 to rate_lanes - 1 do
    xor_lane st lane (Bytes.get_int64_le msg (off + (8 * lane)))
  done

(* Absorb the final [rem < rate_bytes] message bytes plus the SHA3 domain
   padding byte 0x06 (which lands at byte offset [rem] of the block). The
   caller XORs the closing 0x80 into the last rate byte. *)
let absorb_tail_padded st (msg : bytes) off rem =
  let full = rem / 8 in
  for lane = 0 to full - 1 do
    xor_lane st lane (Bytes.get_int64_le msg (off + (8 * lane)))
  done;
  let tail = ref 0L in
  for i = rem - 1 downto 8 * full do
    tail := Int64.logor (Int64.shift_left !tail 8) (Int64.of_int (Char.code (Bytes.get msg (off + i))))
  done;
  xor_lane st full (Int64.logor !tail (Int64.shift_left 0x06L (8 * (rem land 7))))

let trailing_pad = Int64.shift_left 0x80L 56 (* byte 135 = lane 16, top byte *)

let squeeze_32 st =
  let out = Bytes.create digest_length in
  for lane = 0 to 3 do
    Bytes.set_int64_le out (8 * lane) (Fv.unsafe_get st lane)
  done;
  Bytes.unsafe_to_string out

let sha3_256_ocaml (msg : bytes) : digest =
  let s = Domain.DLS.get scratch_key in
  let st = s.st in
  Fv.zero st;
  let len = Bytes.length msg in
  let off = ref 0 in
  while len - !off >= rate_bytes do
    absorb_full_block st msg !off;
    f1600 s;
    off := !off + rate_bytes
  done;
  absorb_tail_padded st msg !off (len - !off);
  xor_lane st 16 trailing_pad;
  f1600 s;
  squeeze_32 st

(* The whole-message native sponge skips the per-block OCaml absorb loop,
   not just the permutation. *)
let sha3_256 (msg : bytes) : digest =
  if Native.on () then begin
    let out = Bytes.create digest_length in
    Native.sha3 msg out;
    Bytes.unsafe_to_string out
  end
  else sha3_256_ocaml msg

let sha3_256_string s = sha3_256 (Bytes.unsafe_of_string s)

(* Pad a message that ends at lane [m] (SHA3's 0x06 at byte 8m, the
   closing 0x80 at byte 135) and run the final permutation. *)
let pad_and_permute s m =
  xor_lane s.st m 0x06L (* pad at byte 8*m; m < rate_lanes *);
  xor_lane s.st 16 trailing_pad;
  f1600 s

(* Two 32-byte digests fill exactly lanes 0-7, so the Merkle compression
   absorbs both operands in place of the old [a ^ b] concatenation buffer:
   one permutation, zero intermediate allocation. *)
let hash2_ocaml a b =
  let s = Domain.DLS.get scratch_key in
  let st = s.st in
  Fv.zero st;
  for lane = 0 to 3 do
    xor_lane st lane (String.get_int64_le a (8 * lane));
    xor_lane st (4 + lane) (String.get_int64_le b (8 * lane))
  done;
  pad_and_permute s 8 (* a 64-byte message: pad at byte 64 *);
  squeeze_32 st

let hash2 a b =
  if String.length a <> digest_length || String.length b <> digest_length then
    invalid_arg "Keccak.hash2: digests must be 32 bytes";
  if Native.on () then begin
    let out = Bytes.create digest_length in
    Native.hash2 a b out;
    Bytes.unsafe_to_string out
  end
  else hash2_ocaml a b

(* Field elements are 8 LE bytes, so element k of a message lands exactly in
   lane [k mod rate_lanes]: both Gf-hash entry points absorb elements as
   lanes directly, skipping the intermediate byte buffer the old
   implementation built. *)

let finish_gf_block s m =
  pad_and_permute s m;
  squeeze_32 s.st

let rec hash_gf (elems : Gf.t array) =
  if Native.on () then begin
    let out = Bytes.create digest_length in
    Native.hash_gf elems out;
    Bytes.unsafe_to_string out
  end
  else hash_gf_ocaml elems

and hash_gf_ocaml (elems : Gf.t array) =
  let s = Domain.DLS.get scratch_key in
  let st = s.st in
  Fv.zero st;
  let n = Array.length elems in
  let off = ref 0 in
  while n - !off >= rate_lanes do
    for k = 0 to rate_lanes - 1 do
      xor_lane st k (Gf.to_int64 (Array.unsafe_get elems (!off + k)))
    done;
    f1600 s;
    off := !off + rate_lanes
  done;
  let m = n - !off in
  for k = 0 to m - 1 do
    xor_lane st k (Gf.to_int64 (Array.unsafe_get elems (!off + k)))
  done;
  finish_gf_block s m

(* Strided flat-vector variant: element i of the message is
   [v.(pos + i*stride)]. stride = 1 hashes a contiguous vector; stride =
   n_cols hashes one column of a row-major matrix without gathering it. *)
let rec hash_fv_stride (v : Fv.t) ~pos ~stride ~count =
  if count < 0 || pos < 0 || stride < 1
     || (count > 0 && pos + ((count - 1) * stride) >= Fv.length v)
  then invalid_arg "Keccak.hash_fv_stride";
  if Native.on () then begin
    let out = Bytes.create digest_length in
    Native.hash_fv_stride v pos stride count out;
    Bytes.unsafe_to_string out
  end
  else hash_fv_stride_ocaml v ~pos ~stride ~count

and hash_fv_stride_ocaml (v : Fv.t) ~pos ~stride ~count =
  let s = Domain.DLS.get scratch_key in
  sponge_strided s v ~pos ~stride ~count;
  squeeze_32 s.st

(* Absorb the strided message, pad and permute: the digest is then lanes
   0..3 of [s.st]. *)
and sponge_strided s (v : Fv.t) ~pos ~stride ~count =
  let st = s.st in
  Fv.zero st;
  let off = ref 0 in
  while count - !off >= rate_lanes do
    let base = pos + (!off * stride) in
    for k = 0 to rate_lanes - 1 do
      xor_lane st k (Fv.unsafe_get v (base + (k * stride)))
    done;
    f1600 s;
    off := !off + rate_lanes
  done;
  let m = count - !off in
  let base = pos + (!off * stride) in
  for k = 0 to m - 1 do
    xor_lane st k (Fv.unsafe_get v (base + (k * stride)))
  done;
  pad_and_permute s m

let hash_fv v = hash_fv_stride v ~pos:0 ~stride:1 ~count:(Fv.length v)

(* --- grain calibration --------------------------------------------------- *)

(* One f1600 permutation costs ~27µs in the pure-OCaml build and ~0.47µs
   in the unrolled C kernel (the keccak-f1600 row of BENCH_native.json; see
   DESIGN.md Sec. 13), so the chunk cost is mode-dependent. Every batched
   entry point below derives its pool grain from a per-item permutation
   count, so a claimed chunk amortizes ~50µs of hashing regardless of
   message shape. *)
let block_ns () = if Native.on () then 470 else 27_000

(* --- flat digest buffers ---------------------------------------------------- *)

(* A digest is 32 bytes = 4 little-endian lanes, so a run of digests is one
   flat lane buffer with digest i at lanes [4i, 4i + 4). The Merkle levels
   and the leaf kernels below live in that form; [digest_at]/[set_digest]
   convert one digest at the string boundary (roots, paths). *)

let digest_at (v : Fv.t) i =
  let out = Bytes.create digest_length in
  for lane = 0 to 3 do
    Bytes.set_int64_le out (8 * lane) (Fv.get v ((4 * i) + lane))
  done;
  Bytes.unsafe_to_string out

let set_digest (v : Fv.t) i (d : digest) =
  if String.length d <> digest_length then invalid_arg "Keccak.set_digest: need 32 bytes";
  for lane = 0 to 3 do
    Fv.set v ((4 * i) + lane) (String.get_int64_le d (8 * lane))
  done

let hash_nodes_ocaml (src : Fv.t) (dst : Fv.t) lo hi =
  let s = Domain.DLS.get scratch_key in
  let st = s.st in
  for i = lo to hi - 1 do
    Fv.zero st;
    for lane = 0 to 7 do
      Fv.unsafe_set st lane (Fv.unsafe_get src ((8 * i) + lane))
    done;
    pad_and_permute s 8 (* a 64-byte message: pad at byte 64 *);
    for lane = 0 to 3 do
      Fv.unsafe_set dst ((4 * i) + lane) (Fv.unsafe_get st lane)
    done
  done

let hash_cols_ocaml (flat : Fv.t) ~cols ~rows (dst : Fv.t) lo hi =
  let s = Domain.DLS.get scratch_key in
  for j = lo to hi - 1 do
    sponge_strided s flat ~pos:j ~stride:cols ~count:rows;
    for lane = 0 to 3 do
      Fv.unsafe_set dst ((4 * j) + lane) (Fv.unsafe_get s.st lane)
    done
  done

(* The pool claims groups of nodes/columns of the kernel's lane count, so
   with SIMD every claimed range but the level's last runs whole x8 or x4
   permutations. A group is priced by the lane count that actually runs.
   One x8 call costs ~0.55µs for eight sponges (the merkle-build and
   merkle-build-fri rows of BENCH_native.json: 67-90 ns per node on the
   2-core Xeon bench host). One x4 call costs ~0.95µs for four sponges
   (the AVX2-tier leg of the merkle-build row reads 147-220 ns per node,
   0.6-0.9µs a quad), so a chunk lands a little under the pool's ~50µs
   target. With one lane (the scalar C body, or the OCaml permutation) a
   quad is four single permutations. *)
let group_width () = if Native.keccak_lanes () = 8 then 8 else 4

let group_ns () =
  match Native.keccak_lanes () with
  | 8 -> 550
  | 4 -> 950
  | _ -> 4 * block_ns ()

let group_grain ~perms = Pool.grain_of_ns (perms * group_ns ())

let node_grain () = group_width () * group_grain ~perms:1

let over_groups ~perms n body =
  let w = group_width () in
  Pool.run ~grain:(group_grain ~perms) ~n:((n + w - 1) / w) (fun a b -> body (w * a) (min n (w * b)))

let hash_nodes_into ~(src : Fv.t) ~(dst : Fv.t) =
  if Fv.length dst land 3 <> 0 || Fv.length src <> 2 * Fv.length dst then
    invalid_arg "Keccak.hash_nodes_into: need 8 source lanes per 4 destination lanes";
  let body = if Native.on () then Native.hash_nodes src dst else hash_nodes_ocaml src dst in
  over_groups ~perms:1 (Fv.length dst / 4) body

let hash_cols_into ~rows ~cols (flat : Fv.t) ~(dst : Fv.t) =
  if rows < 0 || cols <= 0 || Fv.length flat <> rows * cols || Fv.length dst <> 4 * cols then
    invalid_arg "Keccak.hash_cols_into";
  let body =
    if Native.on () then Native.hash_cols flat cols rows dst
    else hash_cols_ocaml flat ~cols ~rows dst
  in
  over_groups ~perms:((rows / rate_lanes) + 1) cols body

(* --- incremental per-column sponges -------------------------------------- *)

(* A bank of independent SHA3-256 sponges, one per matrix column, that
   absorbs the matrix row-block by row-block. This is what lets the Orion
   commit pipeline hash block k while encoding block k+1: rows stream in as
   they are produced instead of a single column-strided pass at the end.
   For any column j, absorbing rows 0..total-1 in order and finalizing is
   byte-identical to [hash_fv_stride ~pos:j ~stride:cols ~count:total]. *)
module Col_hash = struct
  type t = { cols : int; states : Fv.t (* 25 lanes per column *) }

  let create cols =
    if cols <= 0 then invalid_arg "Keccak.Col_hash.create";
    let states = Fv.create (25 * cols) in
    Fv.zero states;
    { cols; states }

  (* Absorb rows [r_lo, r_hi) of the row-major matrix [flat] (row length
     [row_stride]) into the sponges of columns [c_lo, c_hi). Rows must
     arrive in order and exactly once per column; disjoint column ranges
     may be absorbed from different domains concurrently (the b/c
     permutation scratch is domain-local). *)
  let rec absorb t (flat : Fv.t) ~row_stride ~r_lo ~r_hi ~c_lo ~c_hi =
    if c_lo < 0 || c_hi > t.cols || r_lo < 0
       || (r_hi > r_lo && ((r_hi - 1) * row_stride) + c_hi > Fv.length flat)
    then invalid_arg "Keccak.Col_hash.absorb";
    if Native.on () then Native.col_absorb t.states flat row_stride r_lo r_hi c_lo c_hi
    else absorb_ocaml t flat ~row_stride ~r_lo ~r_hi ~c_lo ~c_hi

  and absorb_ocaml t (flat : Fv.t) ~row_stride ~r_lo ~r_hi ~c_lo ~c_hi =
    let s = Domain.DLS.get scratch_key in
    for j = c_lo to c_hi - 1 do
      let base = 25 * j in
      for r = r_lo to r_hi - 1 do
        let lane = r mod rate_lanes in
        Fv.unsafe_set t.states (base + lane)
          (Int64.logxor
             (Fv.unsafe_get t.states (base + lane))
             (Fv.unsafe_get flat ((r * row_stride) + j)));
        if lane = rate_lanes - 1 then f1600_off t.states base s.b s.c
      done
    done

  (* Close columns [c_lo, c_hi) after [total_rows] absorbed rows, writing
     digest j into lanes [4j, 4j + 4) of [out]. *)
  let finalize t ~total_rows ~c_lo ~c_hi (out : Fv.t) =
    if c_lo < 0 || c_hi > t.cols || Fv.length out < 4 * c_hi then
      invalid_arg "Keccak.Col_hash.finalize";
    let s = Domain.DLS.get scratch_key in
    let m = total_rows mod rate_lanes in
    for j = c_lo to c_hi - 1 do
      let base = 25 * j in
      Fv.unsafe_set t.states (base + m)
        (Int64.logxor (Fv.unsafe_get t.states (base + m)) 0x06L);
      Fv.unsafe_set t.states (base + 16)
        (Int64.logxor (Fv.unsafe_get t.states (base + 16)) trailing_pad);
      f1600_off t.states base s.b s.c;
      for lane = 0 to 3 do
        Fv.unsafe_set out ((4 * j) + lane) (Fv.unsafe_get t.states (base + lane))
      done
    done
end

let to_hex d =
  let buf = Buffer.create 64 in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) d;
  Buffer.contents buf

let digest_to_gf d =
  Array.init 4 (fun i -> Zk_field.Gf.of_int64 (String.get_int64_le d (8 * i)))
