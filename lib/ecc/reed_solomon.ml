let name = "reed-solomon"

let blowup = 4

(* 189 column queries at blowup 4 reach 128-bit soundness for the proximity
   test (Sec. VII-A); the expander code needed 1,222. *)
let query_count = 189

(* One row: zero-extend the message view into the codeword view and NTT it
   in place. *)
let encode_row_into ~src ~dst =
  let n = Nocap_vec.Fv.length src in
  if n = 0 || n land (n - 1) <> 0 then
    invalid_arg "Reed_solomon.encode_row_into: message length must be a power of two";
  if Nocap_vec.Fv.length dst <> blowup * n then
    invalid_arg "Reed_solomon.encode_row_into: dst length <> blowup * src length";
  let module Nfv = Zk_ntt.Ntt.Gf_fv in
  let module Native = Nocap_native.Native in
  let plan = Nfv.plan (blowup * n) in
  if Native.on () then
    (* Fused copy + zero-pad + in-place NTT: one C call per row, no OCaml
       round trips between the prologue and the butterflies. *)
    Native.rs_encode_row src dst (Nfv.twiddles plan)
  else begin
    Nocap_vec.Fv.zero dst;
    Nocap_vec.Fv.blit ~src ~src_pos:0 ~dst ~dst_pos:0 ~len:n;
    Nfv.forward plan dst
  end

let log2 m =
  let rec go k x = if x <= 1 then k else go (k + 1) (x lsr 1) in
  go 0 m

(* Flat butterflies cost ~8ns (~3ns in the C kernel); the zero+blit
   prologue ~4ns (~1ns fused) per output. *)
let row_encode_ns ~cols =
  let m = blowup * cols in
  if Nocap_native.Native.on () then max 1 ((m / 2 * log2 m * 3) + m)
  else max 1 ((m / 2 * log2 m * 8) + (m * 4))
