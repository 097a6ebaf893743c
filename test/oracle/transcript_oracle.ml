(* The Fiat-Shamir transcript one hash at a time, over concatenated
   strings: every mix is SHA3-256 of the state followed by the labelled
   message, every squeeze SHA3-256 of the state followed by "sq" and the
   counter in decimal. [Zk_hash.Transcript] hashes the same bytes with its
   squeezes batched; its challenges, states and hash counts must equal
   these, also under [Transcript.with_rejected_squeeze]. *)

module Keccak = Zk_hash.Keccak
module Transcript = Zk_hash.Transcript
module Gf = Zk_field.Gf

type t = {
  mutable state : Keccak.digest;
  mutable counter : int; (* challenges squeezed so far *)
  mutable hashes : int;
}

let create domain =
  { state = Keccak.sha3_256_string ("nocap-repro/" ^ domain); counter = 0; hashes = 1 }

let state t = t.state

let hash_count t = t.hashes

let mix t (data : string) =
  t.state <- Keccak.sha3_256_string (t.state ^ data);
  t.hashes <- t.hashes + 1

let absorb_bytes t label data =
  mix t (Printf.sprintf "%s:%d:" label (Bytes.length data) ^ Bytes.to_string data)

let absorb_gf t label elems =
  let n = Array.length elems in
  let buf = Bytes.create (8 * n) in
  for i = 0 to n - 1 do
    Bytes.set_int64_le buf (8 * i) (Gf.to_int64 elems.(i))
  done;
  absorb_bytes t label buf

let absorb_digest t label d = absorb_bytes t label (Bytes.of_string d)

let absorb_int t label n = absorb_bytes t label (Bytes.of_string (string_of_int n))

let squeeze_block t =
  let d =
    if Transcript.rejected_squeeze () = Some t.counter then String.make 32 '\xff'
    else Keccak.sha3_256_string (t.state ^ Printf.sprintf "sq%d" t.counter)
  in
  t.counter <- t.counter + 1;
  t.hashes <- t.hashes + 1;
  d

let challenge_gf t label =
  mix t ("ch:" ^ label);
  let rec go () =
    let d = squeeze_block t in
    let rec scan i =
      if i + 8 > String.length d then go ()
      else
        let x = String.get_int64_le d i in
        if Gf.is_canonical x then x else scan (i + 8)
    in
    scan 0
  in
  go ()

let challenge_gf_vec t label n = Array.init n (fun _ -> challenge_gf t label)

let challenge_indices t label ~bound ~count =
  if bound <= 0 then invalid_arg "Transcript_oracle.challenge_indices";
  mix t ("ix:" ^ label);
  Array.init count (fun _ ->
      let d = squeeze_block t in
      let x = String.get_int64_le d 0 in
      Int64.to_int (Int64.unsigned_rem x (Int64.of_int bound)))
