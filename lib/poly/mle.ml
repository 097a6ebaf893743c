module Gf = Zk_field.Gf
module Fv = Nocap_vec.Fv

type point = Gf.t array

(* Entries [lo, lo + len) of the eq table, len = Fv.length dst, filled in
   place by doubling on contiguous halves. For an aligned power-of-two
   block every entry is (product over the high variables at the block's
   fixed bits) * (eq table of the low variables), so the block starts from
   that prefix. The low variables then enter from the last to the first,
   each as the top bit of the filled part [0, s): its high half [s, 2s) is
   the low half times r_i (one [Fv.scale_into]), and the low half becomes
   itself minus that (one [Fv.sub_into]): per entry v, v * r_i and
   v - v * r_i. Every entry is a product of the same factors whatever the
   block, Goldilocks arithmetic is exact and every result is canonical,
   so each entry is bit-identical to the full table's, which keeps
   blocked and streamed proofs byte-equal. *)
let small = 32

let eq_table_into point ~lo dst =
  let l = Array.length point in
  let n = 1 lsl l in
  let len = Fv.length dst in
  if len <= 0 || len land (len - 1) <> 0 then
    invalid_arg "Mle.eq_table_into: length must be a positive power of two";
  if len > n || lo mod len <> 0 || lo < 0 || lo + len > n then
    invalid_arg "Mle.eq_table_into: block must be aligned and in range";
  let rec log2 m = if m = 1 then 0 else 1 + log2 (m lsr 1) in
  let k = l - log2 len in
  let m = lo / len in
  let prefix = ref Gf.one in
  for i = 0 to k - 1 do
    let f =
      if (m lsr (k - 1 - i)) land 1 = 1 then point.(i)
      else Gf.sub Gf.one point.(i)
    in
    prefix := Gf.mul !prefix f
  done;
  Fv.unsafe_set dst 0 !prefix;
  let size = ref 1 in
  for i = l - 1 downto k do
    let s = !size and r = point.(i) in
    (* Below [small] entries two kernel calls cost more than the loop. *)
    if s < small then
      for b = 0 to s - 1 do
        let v = Fv.unsafe_get dst b in
        let hi = Gf.mul v r in
        Fv.unsafe_set dst (s + b) hi;
        Fv.unsafe_set dst b (Gf.sub v hi)
      done
    else begin
      let low = Fv.sub_view dst ~pos:0 ~len:s and high = Fv.sub_view dst ~pos:s ~len:s in
      Fv.scale_into ~dst:high low r;
      Fv.sub_into ~dst:low low high
    end;
    size := 2 * s
  done

let eq_fv point =
  let dst = Fv.create (1 lsl Array.length point) in
  eq_table_into point ~lo:0 dst;
  dst

let eq_table point = Fv.to_array (eq_fv point)

let eq_split point =
  let l = Array.length point in
  let h = l / 2 in
  (eq_fv (Array.sub point 0 h), eq_fv (Array.sub point h (l - h)), l - h)

(* Aligned power-of-two blocks of at most [block] elements, each doubled in
   place by [eq_table_into]; file-backed blocks go through one staging
   buffer. *)
let eq_table_spill point ~block s =
  let module Spill = Nocap_vec.Spill in
  let len = Spill.length s in
  if len <> 1 lsl Array.length point then invalid_arg "Mle.eq_table_spill: length mismatch";
  let eb =
    let b = min block len in
    let p = ref 1 in
    while !p * 2 <= b do
      p := !p * 2
    done;
    !p
  in
  try
    let buf = Fv.create (if Spill.is_spilled s then eb else 0) in
    let pos = ref 0 in
    while !pos < len do
      Nocap_parallel.Pool.Cancel.check ();
      let blk = Spill.writable s ~pos:!pos ~len:eb ~buf in
      eq_table_into point ~lo:!pos blk;
      Spill.store s ~pos:!pos blk;
      pos := !pos + eb
    done
  with e ->
    Spill.free s;
    raise e

let eq_point r s =
  let l = Array.length r in
  if Array.length s <> l then invalid_arg "Mle.eq_point";
  let acc = ref Gf.one in
  for i = 0 to l - 1 do
    let term =
      Gf.add (Gf.mul r.(i) s.(i)) (Gf.mul (Gf.sub Gf.one r.(i)) (Gf.sub Gf.one s.(i)))
    in
    acc := Gf.mul !acc term
  done;
  !acc
