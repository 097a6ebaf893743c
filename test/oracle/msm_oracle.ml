(* Reference MSMs for [Zk_curve.Msm.pippenger]: the naive sum of scalar
   multiplications, and the single-domain bucket-method MSM it must equal
   exactly for every domain count, whose windows are accumulated and
   combined one after another on the calling domain. *)

module Fr = Zk_field.Fr_bls
module Limbs = Zk_field.Limbs
module G1 = Zk_curve.G1

(* Independent scalar multiplications, summed: O(n * 256) doublings. *)
let naive scalars points =
  if Array.length scalars <> Array.length points then invalid_arg "Msm_oracle.naive: lengths";
  let acc = ref G1.infinity in
  Array.iteri (fun i s -> acc := G1.add !acc (G1.scalar_mul s points.(i))) scalars;
  !acc

let scalar_bits = 255

(* Extract the [window]-bit digit of a scalar starting at bit [lo]. *)
let digit limbs lo window =
  let v = ref 0 in
  for b = window - 1 downto 0 do
    let bit = if Limbs.bit limbs (lo + b) then 1 else 0 in
    v := (!v lsl 1) lor bit
  done;
  !v

(* Per-window bucket accumulation + running-sum reduction: the O(n) part
   of Pippenger, independent across windows. *)
let window_sum limbs points n c w =
  let buckets = Array.make ((1 lsl c) - 1) G1.infinity in
  for i = 0 to n - 1 do
    let d = digit limbs.(i) (w * c) c in
    if d > 0 then buckets.(d - 1) <- G1.add buckets.(d - 1) points.(i)
  done;
  (* Running-sum reduction: sum_d d * bucket_d with 2 * |buckets| adds. *)
  let running = ref G1.infinity and windowed = ref G1.infinity in
  for d = Array.length buckets - 1 downto 0 do
    running := G1.add !running buckets.(d);
    windowed := G1.add !windowed !running
  done;
  !windowed

(* Combine the per-window sums most-significant first, shifting by one
   window (c doublings) between additions. *)
let combine_windows windowed c =
  let acc = ref G1.infinity in
  for w = Array.length windowed - 1 downto 0 do
    if not (G1.is_infinity !acc) then
      for _ = 1 to c do
        acc := G1.double !acc
      done;
    acc := G1.add !acc windowed.(w)
  done;
  !acc

let pippenger_serial ?window scalars points =
  let n = Array.length scalars in
  if n <> Array.length points then invalid_arg "Msm_oracle.pippenger_serial: lengths";
  if n = 0 then G1.infinity
  else begin
    let c = match window with Some c -> c | None -> Zk_curve.Msm.window_for n in
    let num_windows = (scalar_bits + c - 1) / c in
    let limbs = Array.map Fr.to_limbs scalars in
    combine_windows (Array.init num_windows (window_sum limbs points n c)) c
  end

