(* The elementwise [Nocap_vec.Fv] kernels as OCaml loops over the
   [Zk_field.Gf] operations: the references the C kernels (every tier) are
   checked against. [dst] may alias an input, as in [Fv]. *)

module Gf = Zk_field.Gf
module Fv = Nocap_vec.Fv

let check2 name dst a =
  if Fv.length dst <> Fv.length a then invalid_arg name

let check3 name dst a b =
  if Fv.length dst <> Fv.length a || Fv.length a <> Fv.length b then invalid_arg name

let add_into ~dst a b =
  check3 "Fv_oracle.add_into" dst a b;
  for i = 0 to Fv.length dst - 1 do
    Fv.unsafe_set dst i (Gf.add (Fv.unsafe_get a i) (Fv.unsafe_get b i))
  done

let sub_into ~dst a b =
  check3 "Fv_oracle.sub_into" dst a b;
  for i = 0 to Fv.length dst - 1 do
    Fv.unsafe_set dst i (Gf.sub (Fv.unsafe_get a i) (Fv.unsafe_get b i))
  done

let mul_into ~dst a b =
  check3 "Fv_oracle.mul_into" dst a b;
  for i = 0 to Fv.length dst - 1 do
    Fv.unsafe_set dst i (Gf.mul (Fv.unsafe_get a i) (Fv.unsafe_get b i))
  done

let scale_into ~dst a c =
  check2 "Fv_oracle.scale_into" dst a;
  for i = 0 to Fv.length dst - 1 do
    Fv.unsafe_set dst i (Gf.mul c (Fv.unsafe_get a i))
  done

let axpy_into ~dst c src =
  check2 "Fv_oracle.axpy_into" dst src;
  for i = 0 to Fv.length dst - 1 do
    Fv.unsafe_set dst i (Gf.add (Fv.unsafe_get dst i) (Gf.mul c (Fv.unsafe_get src i)))
  done

let lerp_into ~dst a b c =
  check3 "Fv_oracle.lerp_into" dst a b;
  for i = 0 to Fv.length dst - 1 do
    let x = Fv.unsafe_get a i in
    Fv.unsafe_set dst i (Gf.add x (Gf.mul c (Gf.sub (Fv.unsafe_get b i) x)))
  done
