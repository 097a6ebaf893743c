module Gf = Zk_field.Gf
module Fv = Nocap_vec.Fv

(* --- writer --- *)

let put_u64 buf (x : int64) = Buffer.add_int64_le buf x

let put_int buf n = put_u64 buf (Int64.of_int n)

let put_byte buf (c : char) = Buffer.add_char buf c

let put_gf buf x = put_u64 buf (Gf.to_int64 x)

let put_gf_array buf a =
  put_int buf (Array.length a);
  Array.iter (put_gf buf) a

let put_words buf v =
  for i = 0 to Fv.length v - 1 do
    put_u64 buf (Fv.unsafe_get v i)
  done

let put_fv buf v =
  put_int buf (Fv.length v);
  put_words buf v

let put_digest buf d =
  assert (String.length d = 32);
  Buffer.add_string buf d

(* A digest's four little-endian lanes are its 32 bytes in order. *)
let put_digest_lanes buf v =
  if Fv.length v land 3 <> 0 then invalid_arg "Codec.put_digest_lanes: need whole digests";
  put_words buf v

(* --- reader: total, bounds-checked --- *)

type reader = { data : bytes; mutable pos : int }

let reader data = { data; pos = 0 }

let pos r = r.pos

let remaining r = Bytes.length r.data - r.pos

let at_end r = r.pos = Bytes.length r.data

let ( let* ) = Result.bind

(* Any single length field beyond this is rejected outright: it cannot be a
   legitimate proof component and would otherwise let a malicious length
   pre-allocate unbounded memory. *)
let max_len = 1 lsl 28

let truncated r n =
  Verify_error.errorf Verify_error.Truncated "input ends at byte %d, needed %d more"
    (Bytes.length r.data) n

let need r n = if n >= 0 && r.pos + n <= Bytes.length r.data then Ok () else truncated r n

let get_u64 r =
  let* () = need r 8 in
  let x = Bytes.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  Ok x

let get_byte r =
  let* () = need r 1 in
  let c = Bytes.get r.data r.pos in
  r.pos <- r.pos + 1;
  Ok c

let get_len r =
  let* x = get_u64 r in
  if Int64.compare x 0L < 0 || Int64.compare x (Int64.of_int max_len) > 0 then
    Verify_error.errorf Verify_error.Malformed_field "implausible length field %Ld" x
  else Ok (Int64.to_int x)

let non_canonical x =
  Verify_error.errorf Verify_error.Malformed_field "non-canonical field element 0x%Lx" x

let get_gf r =
  let* x = get_u64 r in
  if Gf.is_canonical x then Ok (Gf.of_int64 x) else non_canonical x

(* [n] little-endian words into [dst] at [pos]; the caller checked the
   bounds. *)
let read_words r n dst ~pos =
  for i = 0 to n - 1 do
    Fv.unsafe_set dst (pos + i) (Bytes.get_int64_le r.data (r.pos + (8 * i)))
  done;
  r.pos <- r.pos + (8 * n)

(* One bounds check, one pass of word reads, then one canonicality pass:
   the first offender is the element a [get_gf] per element would have
   stopped at, so the error is the same. *)
let get_fv_into r ~len dst ~pos =
  if len < 0 || pos < 0 || pos + len > Fv.length dst then
    invalid_arg "Codec.get_fv_into: destination";
  let* () = need r (8 * len) in
  read_words r len dst ~pos;
  let rec check i =
    if i = len then Ok ()
    else
      let x = Fv.unsafe_get dst (pos + i) in
      if Gf.is_canonical x then check (i + 1) else non_canonical x
  in
  check 0

let get_fv r =
  let* n = get_len r in
  let* () = need r (8 * n) in
  let v = Fv.create n in
  let* () = get_fv_into r ~len:n v ~pos:0 in
  Ok v

(* [count] calls of [get_digest] fail at the first digest that does not
   fit, always as "needed 32 more"; one bounds check reports the same. *)
let need_digests r count = if count <= remaining r / 32 then Ok () else truncated r 32

let get_digest_lanes_into r ~count dst ~pos =
  if count < 0 || pos < 0 || pos + (4 * count) > Fv.length dst then
    invalid_arg "Codec.get_digest_lanes_into: destination";
  let* () = need_digests r count in
  read_words r (4 * count) dst ~pos;
  Ok ()

let get_digest r =
  let* () = need r 32 in
  let d = Bytes.sub_string r.data r.pos 32 in
  r.pos <- r.pos + 32;
  Ok d

let get_array r get =
  let* n = get_len r in
  let rec go i acc =
    if i = n then Ok (Array.of_list (List.rev acc))
    else
      let* x = get r in
      go (i + 1) (x :: acc)
  in
  go 0 []

(* --- growable flat buffers for decoders --- *)

type fill = { mutable buf : Fv.t; mutable used : int }

let fill () = { buf = Fv.create 0; used = 0 }

let reserve f n ~hint =
  if f.used + n > Fv.length f.buf then begin
    let b = Fv.create (max (f.used + n) (max hint (2 * Fv.length f.buf))) in
    Fv.blit ~src:f.buf ~src_pos:0 ~dst:b ~dst_pos:0 ~len:f.used;
    f.buf <- b
  end

let contents f =
  if f.used = Fv.length f.buf then f.buf else Fv.sub_view f.buf ~pos:0 ~len:f.used

let expect_string r s =
  let n = String.length s in
  let* () =
    if r.pos + n <= Bytes.length r.data then Ok ()
    else Verify_error.error Verify_error.Bad_header "input shorter than the header"
  in
  let got = Bytes.sub_string r.data r.pos n in
  if String.equal got s then begin
    r.pos <- r.pos + n;
    Ok ()
  end
  else Verify_error.error Verify_error.Bad_header "bad magic"

let expect_end r =
  if at_end r then Ok ()
  else
    Verify_error.errorf Verify_error.Malformed_field
      "%d trailing bytes after a complete value" (remaining r)
