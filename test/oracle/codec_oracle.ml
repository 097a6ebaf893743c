(* The element-at-a-time field-array decoder: a length, a bounds check of
   the whole run, then one [Codec.get_gf] per element. [Codec.get_fv] (one
   bounds check, one pass of word reads, one canonicality pass) is checked
   against it, error for error. *)

module Gf = Zk_field.Gf
module Codec = Zk_pcs.Codec

let ( let* ) = Result.bind

let get_gf_array r =
  let* n = Codec.get_len r in
  let* () = Codec.need r (8 * n) in
  let out = Array.make (max n 1) Gf.zero in
  let rec go i =
    if i = n then Ok (if n = 0 then [||] else out)
    else
      let* x = Codec.get_gf r in
      out.(i) <- x;
      go (i + 1)
  in
  go 0
