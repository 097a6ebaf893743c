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

(* --- boxed MLE folds and evaluation ------------------------------------

   A table of [2^L] entries is the MLE's values on the Boolean cube,
   variable 1 the most significant bit of the index. *)

(* [log2] of the table length. *)
let num_vars a =
  let n = Array.length a in
  if n = 0 || n land (n - 1) <> 0 then invalid_arg "Mle_oracle: table must be a power of two";
  let rec go k m = if m = 1 then k else go (k + 1) (m lsr 1) in
  go 0 n

(* Binds the top variable to [r]: a'.(b) = a.(b) + r * (a.(b + n/2) - a.(b)),
   half the length. *)
let fold_top a r =
  let n = Array.length a in
  if n < 2 then invalid_arg "Mle_oracle.fold_top";
  let half = n / 2 in
  Array.init half (fun b -> Gf.add a.(b) (Gf.mul r (Gf.sub a.(b + half) a.(b))))

(* [fold_top] on the first [len] entries of [a], in place; returns the new
   live length [len / 2]. *)
let fold_top_in_place a ~len r =
  if len < 2 || len > Array.length a then invalid_arg "Mle_oracle.fold_top_in_place";
  let half = len / 2 in
  for b = 0 to half - 1 do
    a.(b) <- Gf.add a.(b) (Gf.mul r (Gf.sub a.(b + half) a.(b)))
  done;
  half

(* The MLE of a table at an arbitrary point, one [fold_top] per variable. *)
let eval a point =
  let l = num_vars a in
  if Array.length point <> l then invalid_arg "Mle_oracle.eval: dimension mismatch";
  let cur = ref (Array.copy a) in
  Array.iter (fun r -> cur := fold_top !cur r) point;
  (!cur).(0)

(* The Boolean point of length [l] whose bits are the binary expansion of
   [i], variable 1 the most significant bit. *)
let eval_of_index l i =
  Array.init l (fun j -> if (i lsr (l - 1 - j)) land 1 = 1 then Gf.one else Gf.zero)
