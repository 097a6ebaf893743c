module Gf = Zk_field.Gf
module Rng = Zk_util.Rng

let name = "expander"

let blowup = 4

(* Expander codes at this rate need far more column queries than
   Reed-Solomon for the same soundness (Sec. VII-A). *)
let query_count = 1222

let base_size = 32

let degree = 8 (* nonzeros per row of each sparse graph matrix *)

let row_seed ~tag ~n ~row =
  Int64.add
    (Int64.mul (Int64.of_int n) 0x9E3779B97F4A7C15L)
    (Int64.add (Int64.mul (Int64.of_int row) 6364136223846793005L) (Int64.of_int tag))

let rec random_accesses n =
  if n <= base_size then 0
  else
    (* degree gathers per row of A (n/2 rows) and of B (n rows). *)
    (degree * (n / 2)) + (degree * n) + random_accesses (n / 2)

(* A full message encode is dominated by its graph gathers plus the
   base-case RS encodes (~10ns per output symbol). *)
let row_encode_ns ~cols = max 1 ((random_accesses cols * 50) + (blowup * cols * 10))

module Fv = Nocap_vec.Fv
module Arena = Nocap_vec.Arena

(* Row [r] of a pseudo-random sparse graph matrix: [degree] (column,
   coefficient) pairs drawn from an Rng seeded by (tag, n, row), so encoding
   is a fixed linear map per message size. Output [r] is that row's dot
   product with [x], accumulated left to right as the entries are drawn
   (column, then coefficient); the pairs never materialize. *)
let apply_graph ~tag (x : Fv.t) (dst : Fv.t) =
  let cols = Fv.length x in
  for r = 0 to Fv.length dst - 1 do
    let rng = Rng.create (row_seed ~tag ~n:cols ~row:r) in
    let acc = ref Gf.zero in
    for _ = 1 to degree do
      let c = Rng.int rng cols in
      let coeff = Gf.add Gf.one (Gf.of_int64 (Int64.rem (Rng.next rng) (Int64.sub Gf.p 1L))) in
      acc := Gf.add !acc (Gf.mul coeff (Fv.get x c))
    done;
    Fv.unsafe_set dst r !acc
  done

(* Encode [src] (length n) into [dst] (length 4n). The output layout
   [msg; z; w] makes the tag-2 input [msg ++ z] a contiguous prefix of
   [dst], so only the compressed intermediate [y] needs arena scratch. *)
let rec encode_fv_into (src : Fv.t) (dst : Fv.t) =
  let n = Fv.length src in
  if n <= base_size then begin
    (* Reed-Solomon base case: zero-extend and NTT in place. *)
    Fv.zero dst;
    Fv.blit ~src ~src_pos:0 ~dst ~dst_pos:0 ~len:n;
    let module Nfv = Zk_ntt.Ntt.Gf_fv in
    Nfv.forward (Nfv.plan (Fv.length dst)) dst
  end
  else begin
    (* Compress to n/2 through graph A, encode recursively (giving 2n), then
       expand the concatenation back through graph B to n more symbols:
       total n + 2n + n = 4n. The message is systematic in the codeword. *)
    Fv.blit ~src ~src_pos:0 ~dst ~dst_pos:0 ~len:n;
    let y = Arena.alloc (n / 2) in
    apply_graph ~tag:1 src y;
    encode_fv_into y (Fv.sub_view dst ~pos:n ~len:(2 * n));
    apply_graph ~tag:2
      (Fv.sub_view dst ~pos:0 ~len:(3 * n))
      (Fv.sub_view dst ~pos:(3 * n) ~len:n)
  end

(* One row through the recursive encoder, arena-framed so it is safe from
   any domain (and from serial callers). *)
let encode_row_into ~src ~dst =
  let n = Fv.length src in
  if n = 0 || n land (n - 1) <> 0 then
    invalid_arg "Expander.encode_row_into: message length must be a power of two";
  if Fv.length dst <> blowup * n then
    invalid_arg "Expander.encode_row_into: dst length <> blowup * src length";
  Arena.with_frame (fun () -> encode_fv_into src dst)

let graph_bytes n =
  (* Each graph entry stores a column index (8 bytes) and coefficient
     (8 bytes). *)
  let rec entries n = if n <= base_size then 0 else (degree * (n / 2)) + (degree * n) + entries (n / 2) in
  16 * entries n
