module Gf = Zk_field.Gf
module Builder = Zk_r1cs.Builder
module Gadgets = Zk_r1cs.Gadgets

type t = { limbs : Builder.var array }

let limb_bits = 16

let base = 1 lsl limb_bits

(* --- concrete helpers on int arrays (little-endian base-2^16 limbs), used
   only to compute witness values --- *)

module C = struct
  let compare a b =
    let n = max (Array.length a) (Array.length b) in
    let limb x i = if i < Array.length x then x.(i) else 0 in
    let rec go i =
      if i < 0 then 0
      else
        let c = Stdlib.compare (limb a i) (limb b i) in
        if c <> 0 then c else go (i - 1)
    in
    go (n - 1)

  let is_zero a = Array.for_all (( = ) 0) a

  let sub a b =
    (* a >= b assumed; result has length a. *)
    let out = Array.make (Array.length a) 0 in
    let borrow = ref 0 in
    for i = 0 to Array.length a - 1 do
      let bi = if i < Array.length b then b.(i) else 0 in
      let v = a.(i) - bi - !borrow in
      if v < 0 then begin
        out.(i) <- v + base;
        borrow := 1
      end
      else begin
        out.(i) <- v;
        borrow := 0
      end
    done;
    assert (!borrow = 0);
    out

  let shift_left_bits a k =
    (* Multiply by 2^k; result grows as needed. *)
    let total_bits = (Array.length a * limb_bits) + k in
    let out = Array.make ((total_bits / limb_bits) + 1) 0 in
    for i = 0 to Array.length a - 1 do
      for b = 0 to limb_bits - 1 do
        if (a.(i) lsr b) land 1 = 1 then begin
          let pos = (i * limb_bits) + b + k in
          out.(pos / limb_bits) <- out.(pos / limb_bits) lor (1 lsl (pos mod limb_bits))
        end
      done
    done;
    out

  let bit_length a =
    let rec go i =
      if i < 0 then 0
      else if a.(i) = 0 then go (i - 1)
      else
        let rec msb b = if a.(i) lsr b = 0 then b else msb (b + 1) in
        (i * limb_bits) + msb 0
    in
    go (Array.length a - 1)

  (* Binary long division: (quotient, remainder). *)
  let div_rem a m =
    if is_zero m then invalid_arg "Bignum: division by zero";
    let q = Array.make (Array.length a) 0 in
    let r = ref (Array.copy a) in
    let shift = max 0 (bit_length a - bit_length m) in
    for k = shift downto 0 do
      let shifted = shift_left_bits m k in
      if compare !r shifted >= 0 then begin
        r := sub !r (Array.append shifted (Array.make (max 0 (Array.length !r - Array.length shifted)) 0));
        q.(k / limb_bits) <- q.(k / limb_bits) lor (1 lsl (k mod limb_bits))
      end
    done;
    (q, Array.sub !r 0 (Array.length a))

  let of_int64 ~limbs v =
    Array.init limbs (fun i ->
        Int64.to_int (Int64.logand (Int64.shift_right_logical v (limb_bits * i)) 0xFFFFL))

  let to_int64 a =
    Array.to_list a
    |> List.mapi (fun i l -> Int64.shift_left (Int64.of_int l) (limb_bits * i))
    |> List.fold_left Int64.logor 0L
end

(* --- wires --- *)

let concrete b t = Array.map (fun w -> Int64.to_int (Gf.to_int64 (Builder.value b w))) t.limbs

let alloc_limb b ~secret v =
  let w =
    if secret then Builder.witness b (Gf.of_int v) else Builder.input b (Gf.of_int v)
  in
  ignore (Gadgets.bits_of b ~width:limb_bits w);
  w

let of_int64 b ~secret ~limbs v =
  if limbs < 1 || limbs > 32 then invalid_arg "Bignum.of_int64: limbs";
  if limbs < 4 && Int64.unsigned_compare v (Int64.shift_left 1L (limb_bits * limbs)) >= 0
  then invalid_arg "Bignum.of_int64: value does not fit";
  { limbs = Array.map (alloc_limb b ~secret) (C.of_int64 ~limbs v) }

let to_int64 b t = C.to_int64 (concrete b t)

let constant b ~limbs v = of_int64 b ~secret:false ~limbs v

(* Witness a fresh limb array for a concrete value. *)
let witness_limbs b (vals : int array) =
  { limbs = Array.map (fun v -> alloc_limb b ~secret:true v) vals }

(* Carry-normalize per-column linear combinations into a limb array.
   Column sums stay far below the field modulus (<= 2^40 for <= 256 terms),
   so the field arithmetic is exact. *)
let normalize_columns b columns =
  let n = Array.length columns in
  let out = Array.make n Builder.one in
  let carry = ref [] in
  for k = 0 to n - 1 do
    let col_lc = Builder.lc_add columns.(k) !carry in
    let v = Int64.to_int (Gf.to_int64 (Builder.lc_value b col_lc)) in
    let digit = alloc_limb b ~secret:true (v land (base - 1)) in
    let c = Builder.witness b (Gf.of_int (v asr limb_bits)) in
    ignore (Gadgets.bits_of b ~width:(limb_bits + 10) c);
    Gadgets.assert_equal b col_lc
      (Builder.lc_add (Builder.lc_var digit)
         (Builder.lc_scale (Gf.of_int base) (Builder.lc_var c)));
    out.(k) <- digit;
    carry := [ (c, Gf.one) ]
  done;
  (* No residual carry: the caller sizes the column array to hold the full
     result. *)
  Gadgets.assert_equal b !carry [];
  { limbs = out }

let mul b x y =
  let n = Array.length x.limbs and m = Array.length y.limbs in
  let columns = Array.make (n + m) [] in
  for i = 0 to n - 1 do
    for j = 0 to m - 1 do
      let p = Gadgets.mul b x.limbs.(i) y.limbs.(j) in
      columns.(i + j) <- (p, Gf.one) :: columns.(i + j)
    done
  done;
  normalize_columns b columns

let add b x y =
  let n = max (Array.length x.limbs) (Array.length y.limbs) + 1 in
  let columns =
    Array.init n (fun k ->
        (if k < Array.length x.limbs then [ (x.limbs.(k), Gf.one) ] else [])
        @ if k < Array.length y.limbs then [ (y.limbs.(k), Gf.one) ] else [])
  in
  normalize_columns b columns

let assert_equal b x y =
  let n = max (Array.length x.limbs) (Array.length y.limbs) in
  for k = 0 to n - 1 do
    let lc t = if k < Array.length t.limbs then Builder.lc_var t.limbs.(k) else [] in
    Gadgets.assert_equal b (lc x) (lc y)
  done

let less_than b x y =
  let n = Array.length x.limbs in
  if Array.length y.limbs <> n then invalid_arg "Bignum.less_than: widths differ";
  (* Borrow chain: at each limb,
     x_k - y_k - borrow_in + base = digit + base * (1 - borrow_out). *)
  let borrow = ref (Gadgets.add_lc b (Builder.lc_const Gf.zero)) in
  for k = 0 to n - 1 do
    let xv = Int64.to_int (Gf.to_int64 (Builder.value b x.limbs.(k))) in
    let yv = Int64.to_int (Gf.to_int64 (Builder.value b y.limbs.(k))) in
    let bin = Int64.to_int (Gf.to_int64 (Builder.value b !borrow)) in
    let v = xv - yv - bin in
    let bout = if v < 0 then 1 else 0 in
    let digit = v + (bout * base) in
    let digit_w = alloc_limb b ~secret:true digit in
    let bout_w = Builder.witness b (Gf.of_int bout) in
    Gadgets.assert_bool b bout_w;
    (* x_k - y_k - borrow_in = digit - base * borrow_out *)
    Gadgets.assert_equal b
      (Builder.lc_add (Builder.lc_var x.limbs.(k))
         (Builder.lc_add
            (Builder.lc_scale (Gf.neg Gf.one) (Builder.lc_var y.limbs.(k)))
            (Builder.lc_scale (Gf.neg Gf.one) (Builder.lc_var !borrow))))
      (Builder.lc_add (Builder.lc_var digit_w)
         (Builder.lc_scale (Gf.neg (Gf.of_int base)) (Builder.lc_var bout_w)));
    borrow := bout_w
  done;
  !borrow

let mod_reduce b x ~modulus =
  let xc = concrete b x and mc = concrete b modulus in
  let qc, rc = C.div_rem xc mc in
  let q = witness_limbs b qc in
  let r = witness_limbs b (Array.sub rc 0 (Array.length modulus.limbs)) in
  (* The truncation of r to the modulus width must be lossless. *)
  Array.iteri
    (fun i v -> if i >= Array.length modulus.limbs && v <> 0 then assert false)
    rc;
  let qm = mul b q modulus in
  let qm_plus_r = add b qm r in
  assert_equal b qm_plus_r x;
  let lt = less_than b r modulus in
  Gadgets.assert_equal b (Builder.lc_var lt) (Builder.lc_const Gf.one);
  r

let modexp b ~base:base_n ~exponent ~modulus =
  if exponent < 1 then invalid_arg "Bignum.modexp: exponent";
  let bits =
    let rec go e acc = if e = 0 then acc else go (e lsr 1) ((e land 1) :: acc) in
    go exponent []
  in
  match bits with
  | [] -> assert false (* exponent >= 1 *)
  | _ :: rest ->
    (* The leading bit seeds the accumulator with base mod m. *)
    let acc = ref (mod_reduce b base_n ~modulus) in
    List.iter
      (fun bit ->
        acc := mod_reduce b (mul b !acc !acc) ~modulus;
        if bit = 1 then acc := mod_reduce b (mul b !acc base_n) ~modulus)
      rest;
    !acc
