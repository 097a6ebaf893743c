module Fv = Nocap_vec.Fv
module Gf = Zk_field.Gf

(* The running state is the first 32 bytes of [msg]. A mix writes its
   message after the state and hashes that prefix back onto the state, so
   once [msg] has grown to the largest message nothing is allocated, and
   a vector of challenges under one label rewrites nothing between mixes. *)
type t = {
  mutable msg : Bytes.t;
  mutable counter : int; (* challenges squeezed so far *)
  mutable hashes : int;
}

let state_bytes = Keccak.digest_length

let ensure t cap =
  if Bytes.length t.msg < cap then begin
    let msg = Bytes.create (max cap (2 * Bytes.length t.msg)) in
    Bytes.blit t.msg 0 msg 0 state_bytes;
    t.msg <- msg
  end

let create domain =
  let t = { msg = Bytes.create 256; counter = 0; hashes = 1 } in
  let seed = Bytes.unsafe_of_string ("nocap-repro/" ^ domain) in
  Keccak.sha3_256_into seed ~len:(Bytes.length seed) t.msg;
  t

let state t = Bytes.sub_string t.msg 0 state_bytes

let hash_count t = t.hashes

let mix t len =
  Keccak.sha3_256_into t.msg ~len t.msg;
  t.hashes <- t.hashes + 1

(* [String.length (string_of_int n)]. Both decimal helpers work on
   [-|n|], so [min_int] needs no special case. *)
let decimal_length n =
  let rec go k m = if m > -10 then k else go (k + 1) (m / 10) in
  go (if n < 0 then 2 else 1) (if n < 0 then n else -n)

(* [string_of_int n] written at [pos], without the string: returns the
   end position. *)
let put_decimal buf pos n =
  let stop = pos + decimal_length n in
  if n < 0 then Bytes.unsafe_set buf pos '-';
  let rec go i m =
    Bytes.unsafe_set buf i (Char.unsafe_chr (48 - (m mod 10)));
    if m <= -10 then go (i - 1) (m / 10)
  in
  go (stop - 1) (if n < 0 then n else -n);
  stop

(* Write [label ^ ":" ^ string_of_int n ^ ":"] after the state, room for
   [n] more bytes: returns where those bytes go. *)
let put_header t label n =
  let l = String.length label in
  ensure t (state_bytes + l + 22 + n);
  Bytes.blit_string label 0 t.msg state_bytes l;
  Bytes.unsafe_set t.msg (state_bytes + l) ':';
  let pos = put_decimal t.msg (state_bytes + l + 1) n in
  Bytes.unsafe_set t.msg pos ':';
  pos + 1

let absorb_bytes t label data =
  let n = Bytes.length data in
  let pos = put_header t label n in
  Bytes.blit data 0 t.msg pos n;
  mix t (pos + n)

let absorb_gf t label elems =
  let n = Array.length elems in
  let pos = put_header t label (8 * n) in
  for i = 0 to n - 1 do
    Bytes.set_int64_le t.msg (pos + (8 * i)) (Gf.to_int64 (Array.unsafe_get elems i))
  done;
  mix t (pos + (8 * n))

let absorb_fv t label v =
  let n = Fv.length v in
  let pos = put_header t label (8 * n) in
  for i = 0 to n - 1 do
    Bytes.set_int64_le t.msg (pos + (8 * i)) (Fv.unsafe_get v i)
  done;
  mix t (pos + (8 * n))

let absorb_digest t label d = absorb_bytes t label (Bytes.unsafe_of_string d)

let absorb_int t label v =
  let pos = put_header t label (decimal_length v) in
  mix t (put_decimal t.msg pos v)

(* [prefix ^ label] after the state: the message of a challenge mix. *)
let put_label t prefix label =
  let p = String.length prefix and l = String.length label in
  ensure t (state_bytes + p + l);
  Bytes.blit_string prefix 0 t.msg state_bytes p;
  Bytes.blit_string label 0 t.msg (state_bytes + p) l;
  state_bytes + p + l

(* --- squeezes --------------------------------------------------------------- *)

(* A squeeze hashes the state followed by "sq" and the squeeze counter in
   decimal: at most 53 bytes, so one padded rate block. The squeezes of a
   vector do not depend on each other once their states are known, so they
   are staged as blocks and hashed together ([Keccak.sha3_blocks_into]:
   eight per permutation with AVX-512F). The staging buffers are allocated
   once per domain; a transcript call uses them only until it returns. *)
let batch = 64

type staging = {
  blocks : Fv.t; (* block i at lanes [17i, 17i + 17) *)
  digests : Fv.t; (* digest i at lanes [4i, 4i + 4) *)
  tail : Bytes.t; (* "sq", the counter and the 0x06 pad: lanes 4..6 *)
}

let staging_key =
  Domain.DLS.new_key (fun () ->
      let blocks = Fv.create (Keccak.rate_lanes * batch) in
      Fv.zero blocks;
      { blocks; digests = Fv.create (4 * batch); tail = Bytes.create 24 })

let trailing_pad = Int64.shift_left 0x80L 56 (* byte 135: lane 16, top byte *)

(* Block [i] squeezes the current state with counter [c]. Lanes 7..15 stay
   zero from the allocation. *)
let stage t s i c =
  let base = Keccak.rate_lanes * i in
  for lane = 0 to 3 do
    Fv.unsafe_set s.blocks (base + lane) (Bytes.get_int64_le t.msg (8 * lane))
  done;
  Bytes.fill s.tail 0 24 '\000';
  Bytes.unsafe_set s.tail 0 's';
  Bytes.unsafe_set s.tail 1 'q';
  Bytes.unsafe_set s.tail (put_decimal s.tail 2 c) '\006';
  for lane = 0 to 2 do
    Fv.unsafe_set s.blocks (base + 4 + lane) (Bytes.get_int64_le s.tail (8 * lane))
  done;
  Fv.unsafe_set s.blocks (base + 16) trailing_pad

let rejected = ref None

let rejected_squeeze () = !rejected

let with_rejected_squeeze k f =
  let prev = !rejected in
  rejected := Some k;
  Fun.protect ~finally:(fun () -> rejected := prev) f

(* Hash staged blocks [0, n), whose counters start at [c0], and count them. *)
let squeeze_staged t s n c0 =
  Keccak.sha3_blocks_into ~src:s.blocks ~dst:s.digests n;
  (match !rejected with
  | Some k when k >= c0 && k < c0 + n ->
    for lane = 0 to 3 do
      Fv.unsafe_set s.digests ((4 * (k - c0)) + lane) (-1L)
    done
  | _ -> ());
  t.counter <- c0 + n;
  t.hashes <- t.hashes + n

(* Rejection sampling: the first of digest [i]'s four 8-byte chunks below
   p, or -1. Taking the first canonical chunk removes the 2^64 mod p bias;
   a chunk is rejected with probability ~2^-32, a whole digest ~2^-128. *)
let canonical_chunk s i =
  let rec scan lane =
    if lane = 4 then -1
    else if Gf.is_canonical (Fv.unsafe_get s.digests ((4 * i) + lane)) then lane
    else scan (lane + 1)
  in
  scan 0

(* Squeeze the current state one block at a time until a digest has a
   canonical chunk. *)
let rec squeeze_gf t s =
  stage t s 0 t.counter;
  squeeze_staged t s 1 t.counter;
  match canonical_chunk s 0 with
  | -1 -> squeeze_gf t s
  | lane -> Fv.unsafe_get s.digests lane

(* Challenge i is a mix of [ch:label] (a chain: each mix hashes the state
   the last one left) and one squeeze of the state that mix left; it
   squeezes again only when no chunk of its digest is canonical. So all
   mixes of a batch run first, each staging its squeeze, then the
   squeezes are hashed together. If challenge [j] of the batch needs
   another squeeze, the transcript rewinds to just after [j]'s mix (its
   state, its counter and the hash count there), finishes [j] one squeeze
   at a time and goes on from [j + 1]: the same hashes in the same order
   as one challenge at a time. *)
let challenge_gf_vec t label n =
  let out = Array.make n Gf.zero in
  let len = put_label t "ch:" label in
  let s = Domain.DLS.get staging_key in
  let rec from i =
    if i < n then begin
      let m = min batch (n - i) and c0 = t.counter and h0 = t.hashes in
      for j = 0 to m - 1 do
        mix t len;
        stage t s j (c0 + j)
      done;
      squeeze_staged t s m c0;
      let rec take j =
        if j = m then from (i + m)
        else
          match canonical_chunk s j with
          | -1 ->
            for lane = 0 to 3 do
              Bytes.set_int64_le t.msg (8 * lane)
                (Fv.unsafe_get s.blocks ((Keccak.rate_lanes * j) + lane))
            done;
            t.counter <- c0 + j;
            t.hashes <- h0 + (2 * j) + 1;
            out.(i + j) <- squeeze_gf t s;
            from (i + j + 1)
          | lane ->
            out.(i + j) <- Fv.unsafe_get s.digests ((4 * j) + lane);
            take (j + 1)
      in
      take 0
    end
  in
  from 0;
  out

let challenge_gf t label = (challenge_gf_vec t label 1).(0)

(* One mix of [ix:label], then [count] squeezes of the state it left, each
   reduced mod [bound] from its first 8 bytes. *)
let challenge_indices t label ~bound ~count =
  if bound <= 0 then invalid_arg "Transcript.challenge_indices";
  mix t (put_label t "ix:" label);
  let out = Array.make count 0 in
  let s = Domain.DLS.get staging_key in
  let b = Int64.of_int bound in
  let i = ref 0 in
  while !i < count do
    let m = min batch (count - !i) and c0 = t.counter in
    for j = 0 to m - 1 do
      stage t s j (c0 + j)
    done;
    squeeze_staged t s m c0;
    for j = 0 to m - 1 do
      out.(!i + j) <- Int64.to_int (Int64.unsigned_rem (Fv.unsafe_get s.digests (4 * j)) b)
    done;
    i := !i + m
  done;
  out
