(* [Zk_poly.Mle.eq_table_into]'s oracle, the per-entry doubling: entries
   [lo, lo + len) of the eq table of [point], seeded with the product
   over the block's fixed high bits, each further variable entering as the
   new low bit, one [Gf.mul] and one [Gf.sub] per entry. *)

module Gf = Zk_field.Gf
module Fv = Nocap_vec.Fv

let eq_table_into point ~lo dst =
  let l = Array.length point in
  let len = Fv.length dst in
  let rec log2 m = if m = 1 then 0 else 1 + log2 (m lsr 1) in
  let k = l - log2 len in
  let m = lo / len in
  let prefix = ref Gf.one in
  for i = 0 to k - 1 do
    let f = if (m lsr (k - 1 - i)) land 1 = 1 then point.(i) else Gf.sub Gf.one point.(i) in
    prefix := Gf.mul !prefix f
  done;
  Fv.set dst 0 !prefix;
  let size = ref 1 in
  for i = k to l - 1 do
    let r = point.(i) in
    for b = !size - 1 downto 0 do
      let v = Fv.get dst b in
      let hi = Gf.mul v r in
      Fv.set dst ((2 * b) + 1) hi;
      Fv.set dst (2 * b) (Gf.sub v hi)
    done;
    size := 2 * !size
  done
