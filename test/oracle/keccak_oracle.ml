(* Keccak-f[1600] over a boxed [int64 array] state, written straight from
   FIPS 202 (theta, rho + pi, chi, iota with its own round-constant and
   rotation tables): the reference the native C permutations are checked
   against. *)

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

let rotl64 x n =
  if n = 0 then x
  else Int64.logor (Int64.shift_left x n) (Int64.shift_right_logical x (64 - n))

(* Apply the permutation in place to a 25-lane state. *)
let keccak_f1600 st =
  if Array.length st <> 25 then invalid_arg "Keccak_oracle.keccak_f1600: need 25 lanes";
  let c = Array.make 5 0L in
  let b = Array.make 25 0L in
  for round = 0 to 23 do
    (* theta *)
    for x = 0 to 4 do
      c.(x) <-
        Int64.logxor st.(x)
          (Int64.logxor st.(x + 5)
             (Int64.logxor st.(x + 10) (Int64.logxor st.(x + 15) st.(x + 20))))
    done;
    for x = 0 to 4 do
      let d = Int64.logxor c.((x + 4) mod 5) (rotl64 c.((x + 1) mod 5) 1) in
      for y = 0 to 4 do
        st.(x + (5 * y)) <- Int64.logxor st.(x + (5 * y)) d
      done
    done;
    (* rho + pi *)
    for x = 0 to 4 do
      for y = 0 to 4 do
        let src = x + (5 * y) in
        b.(y + (5 * (((2 * x) + (3 * y)) mod 5))) <- rotl64 st.(src) rotations.(src)
      done
    done;
    (* chi *)
    for y = 0 to 4 do
      for x = 0 to 4 do
        st.(x + (5 * y)) <-
          Int64.logxor
            b.(x + (5 * y))
            (Int64.logand (Int64.lognot b.(((x + 1) mod 5) + (5 * y))) b.(((x + 2) mod 5) + (5 * y)))
      done
    done;
    (* iota *)
    st.(0) <- Int64.logxor st.(0) round_constants.(round)
  done

(* SHA3-256 as a byte-at-a-time sponge over [keccak_f1600]: rate 136
   bytes, the message padded with the domain byte 0x06 and a final 0x80
   (one byte 0x86 when they coincide), each block XORed into the state
   lane by lane, little-endian. The reference for the production
   [Zk_hash.Keccak.sha3_256] in every kernel leg. *)
let rate = 136

let sha3_256 (msg : bytes) =
  let len = Bytes.length msg in
  let padded_len = ((len / rate) + 1) * rate in
  let padded = Bytes.make padded_len '\000' in
  Bytes.blit msg 0 padded 0 len;
  Bytes.set_uint8 padded len 0x06;
  Bytes.set_uint8 padded (padded_len - 1) (Bytes.get_uint8 padded (padded_len - 1) lor 0x80);
  let st = Array.make 25 0L in
  for block = 0 to (padded_len / rate) - 1 do
    for lane = 0 to (rate / 8) - 1 do
      st.(lane) <- Int64.logxor st.(lane) (Bytes.get_int64_le padded ((block * rate) + (8 * lane)))
    done;
    keccak_f1600 st
  done;
  let out = Bytes.create 32 in
  for lane = 0 to 3 do
    Bytes.set_int64_le out (8 * lane) st.(lane)
  done;
  Bytes.to_string out
