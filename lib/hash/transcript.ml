type t = {
  mutable state : Keccak.digest;
  mutable counter : int; (* challenges squeezed so far *)
  mutable hashes : int;
}

let create domain =
  { state = Keccak.sha3_256_string ("nocap-repro/" ^ domain); counter = 0; hashes = 1 }

let mix t (data : string) =
  t.state <- Keccak.sha3_256_string (t.state ^ data);
  t.hashes <- t.hashes + 1

let absorb_bytes t label data =
  mix t (Printf.sprintf "%s:%d:" label (Bytes.length data) ^ Bytes.to_string data)

let absorb_gf t label elems =
  let n = Array.length elems in
  let buf = Bytes.create (8 * n) in
  for i = 0 to n - 1 do
    Bytes.set_int64_le buf (8 * i) (Zk_field.Gf.to_int64 elems.(i))
  done;
  absorb_bytes t label buf

let absorb_fv t label v =
  let n = Nocap_vec.Fv.length v in
  let buf = Bytes.create (8 * n) in
  for i = 0 to n - 1 do
    Bytes.set_int64_le buf (8 * i) (Nocap_vec.Fv.unsafe_get v i)
  done;
  absorb_bytes t label buf

let absorb_digest t label d = absorb_bytes t label (Bytes.of_string d)

let absorb_int t label n = absorb_bytes t label (Bytes.of_string (string_of_int n))

let squeeze_block t =
  (* Domain-separate each squeeze by a counter so challenges are independent. *)
  let d = Keccak.sha3_256_string (t.state ^ Printf.sprintf "sq%d" t.counter) in
  t.counter <- t.counter + 1;
  t.hashes <- t.hashes + 1;
  d

let challenge_gf t label =
  mix t ("ch:" ^ label);
  (* Rejection-sample 8-byte chunks until one lands below p: removes the
     2^64 mod p bias (probability of rejection ~ 2^-32 per draw). *)
  let rec go () =
    let d = squeeze_block t in
    let rec scan i =
      if i + 8 > String.length d then go ()
      else
        let x = String.get_int64_le d i in
        if Zk_field.Gf.is_canonical x then x else scan (i + 8)
    in
    scan 0
  in
  go ()

let challenge_gf_vec t label n = Array.init n (fun _ -> challenge_gf t label)

let challenge_indices t label ~bound ~count =
  if bound <= 0 then invalid_arg "Transcript.challenge_indices";
  mix t ("ix:" ^ label);
  Array.init count (fun _ ->
      let d = squeeze_block t in
      let x = String.get_int64_le d 0 in
      Int64.to_int (Int64.unsigned_rem x (Int64.of_int bound)))

let hash_count t = t.hashes
