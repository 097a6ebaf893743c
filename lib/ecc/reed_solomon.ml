let name = "reed-solomon"

let blowup = 4

(* 189 column queries at blowup 4 reach 128-bit soundness for the proximity
   test (Sec. VII-A); the expander code needed 1,222. *)
let query_count = 189

(* One row: zero-extend the message view into the codeword view and NTT it
   in place, fused into one C call (copy, zero-pad, butterflies). *)
let encode_row_into ~src ~dst =
  let n = Nocap_vec.Fv.length src in
  if n = 0 || n land (n - 1) <> 0 then
    invalid_arg "Reed_solomon.encode_row_into: message length must be a power of two";
  if Nocap_vec.Fv.length dst <> blowup * n then
    invalid_arg "Reed_solomon.encode_row_into: dst length <> blowup * src length";
  let module Nfv = Zk_ntt.Ntt.Gf_fv in
  Nocap_native.Native.rs_encode_row src dst (Nfv.twiddles (Nfv.plan (blowup * n)))

let log2 m =
  let rec go k x = if x <= 1 then k else go (k + 1) (x lsr 1) in
  go 0 m

(* A butterfly costs ~3ns in the C kernel, the fused zero-pad prologue
   ~1ns per output. *)
let row_encode_ns ~cols =
  let m = blowup * cols in
  max 1 ((m / 2 * log2 m * 3) + m)
