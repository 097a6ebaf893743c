module Pool = Nocap_parallel.Pool
module Fv = Nocap_vec.Fv
module Gf = Zk_field.Gf
module Native = Nocap_native.Native

type digest = string

let digest_length = 32

let rate_lanes = 17 (* 136 / 8: SHA3-256's capacity is 512 bits *)

let trailing_pad = Int64.shift_left 0x80L 56 (* byte 135 = lane 16, top byte *)

(* The whole message goes to the C sponge: absorb, padding and squeeze in
   one call. *)
let sha3_256_into (msg : bytes) ~len out =
  if len < 0 || len > Bytes.length msg || Bytes.length out < digest_length then
    invalid_arg "Keccak.sha3_256_into";
  Native.sha3 msg len out

let sha3_256 (msg : bytes) : digest =
  let out = Bytes.create digest_length in
  sha3_256_into msg ~len:(Bytes.length msg) out;
  Bytes.unsafe_to_string out

let sha3_256_string s = sha3_256 (Bytes.unsafe_of_string s)

(* --- grain calibration --------------------------------------------------- *)

(* One f1600 permutation costs ~0.47µs in the unrolled C kernel (the
   keccak-f1600 row of BENCH_native.json; see DESIGN.md Sec. 13). Every
   batched entry point below derives its pool grain from a per-item
   permutation count, so a claimed chunk amortizes ~50µs of hashing
   regardless of message shape. *)
let block_ns = 470

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

(* The pool claims groups of nodes/columns of the kernel's lane count, so
   with SIMD every claimed range but the level's last runs whole x8 or x4
   permutations. A group is priced by the lane count that actually runs.
   One x8 call costs ~0.55µs for eight sponges (the merkle-build and
   merkle-build-fri rows of BENCH_native.json: 67-90 ns per node on the
   2-core Xeon bench host). One x4 call costs ~0.95µs for four sponges
   (the AVX2-tier leg of the merkle-build row reads 147-220 ns per node,
   0.6-0.9µs a quad), so a chunk lands a little under the pool's ~50µs
   target. With one lane (the scalar C body) a quad is four single
   permutations. *)
let group_width () = if Native.keccak_lanes () = 8 then 8 else 4

let group_ns () =
  match Native.keccak_lanes () with
  | 8 -> 550
  | 4 -> 950
  | _ -> 4 * block_ns

let group_grain ~perms = Pool.grain_of_ns (perms * group_ns ())

let node_grain () = group_width () * group_grain ~perms:1

let over_groups ~perms n body =
  let w = group_width () in
  Pool.run ~grain:(group_grain ~perms) ~n:((n + w - 1) / w) (fun a b -> body (w * a) (min n (w * b)))

let hash_nodes_into ~(src : Fv.t) ~(dst : Fv.t) =
  if Fv.length dst land 3 <> 0 || Fv.length src <> 2 * Fv.length dst then
    invalid_arg "Keccak.hash_nodes_into: need 8 source lanes per 4 destination lanes";
  over_groups ~perms:1 (Fv.length dst / 4) (Native.hash_nodes src dst)

let hash_cols_into ~rows ~cols (flat : Fv.t) ~(dst : Fv.t) =
  if rows < 0 || cols <= 0 || Fv.length flat <> rows * cols || Fv.length dst <> 4 * cols then
    invalid_arg "Keccak.hash_cols_into";
  over_groups ~perms:((rows / rate_lanes) + 1) cols (Native.hash_cols flat cols rows dst)

(* --- single-block messages ------------------------------------------------- *)

(* No pool split: a caller's batch is a few hundred blocks at most (one
   transcript vector), ~70 ns a block under x8. *)
let sha3_blocks_into ~(src : Fv.t) ~(dst : Fv.t) n =
  if n < 0 || Fv.length src < rate_lanes * n || Fv.length dst < 4 * n then
    invalid_arg "Keccak.sha3_blocks_into";
  Native.sha3_blocks src dst 0 n

(* --- incremental per-column sponges -------------------------------------- *)

(* A bank of independent SHA3-256 sponges, one per matrix column, that
   absorbs the matrix row-block by row-block. This is what lets the Orion
   commit pipeline hash block k while encoding block k+1: rows stream in as
   they are produced instead of a single column-strided pass at the end.
   For any column j, absorbing rows 0..total-1 in order and finalizing is
   byte-identical to column j's leaf in {!hash_cols_into}. *)
module Col_hash = struct
  type t = { cols : int; states : Fv.t (* 25 lanes per column *) }

  let create cols =
    if cols <= 0 then invalid_arg "Keccak.Col_hash.create";
    let states = Fv.create (25 * cols) in
    Fv.zero states;
    { cols; states }

  (* Absorb rows [r_lo, r_hi) of a row-major matrix (row length
     [row_stride]), held by [flat] from its row 0, into the sponges of
     columns [c_lo, c_hi). Rows must arrive in order and exactly once per
     column; disjoint column ranges may be absorbed from different domains
     concurrently. *)
  let absorb t (flat : Fv.t) ~row_stride ~r_lo ~r_hi ~c_lo ~c_hi =
    if c_lo < 0 || c_hi > t.cols || r_lo < 0
       || (r_hi > r_lo && ((r_hi - r_lo - 1) * row_stride) + c_hi > Fv.length flat)
    then invalid_arg "Keccak.Col_hash.absorb";
    Native.col_absorb t.states flat row_stride r_lo r_hi c_lo c_hi

  (* Close columns [c_lo, c_hi) after [total_rows] absorbed rows, writing
     digest j into lanes [4j, 4j + 4) of [out]. *)
  let finalize t ~total_rows ~c_lo ~c_hi (out : Fv.t) =
    if c_lo < 0 || c_hi > t.cols || Fv.length out < 4 * c_hi then
      invalid_arg "Keccak.Col_hash.finalize";
    let m = total_rows mod rate_lanes in
    for j = c_lo to c_hi - 1 do
      let base = 25 * j in
      Fv.unsafe_set t.states (base + m)
        (Int64.logxor (Fv.unsafe_get t.states (base + m)) 0x06L);
      Fv.unsafe_set t.states (base + 16)
        (Int64.logxor (Fv.unsafe_get t.states (base + 16)) trailing_pad);
      Native.f1600_off t.states base;
      for lane = 0 to 3 do
        Fv.unsafe_set out ((4 * j) + lane) (Fv.unsafe_get t.states (base + lane))
      done
    done
end

let to_hex d =
  let buf = Buffer.create 64 in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) d;
  Buffer.contents buf

