(* Unboxed flat vectors of Goldilocks elements.

   [Gf.t array] stores one *boxed* Int64 block per element: every read
   chases a pointer and every write allocates a fresh 3-word box, which is
   exactly the access pattern the prover hot loops (butterflies, row
   combinations, sumcheck folds) execute billions of times. [Fv.t] is the
   unboxed alternative: a C-layout [Bigarray.Array1] of int64, so elements
   are 8 contiguous bytes, reads land in cache lines, and — because the Gf
   primitives are [@inline] — a whole loop iteration runs without touching
   the OCaml heap.

   Layout contract: an [Fv.t] always holds *canonical* Gf values (< p),
   bit-identical to what [Gf.to_int64] returns, so converting between an
   [Fv.t] and a [Gf.t array] is a pure copy and every array-backed oracle
   must agree element-for-element. *)

module Gf = Zk_field.Gf

type t = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

let create n : t = Bigarray.Array1.create Bigarray.Int64 Bigarray.C_layout n

let length (v : t) = Bigarray.Array1.dim v

let[@inline] unsafe_get (v : t) i : Gf.t = Bigarray.Array1.unsafe_get v i
let[@inline] unsafe_set (v : t) i (x : Gf.t) = Bigarray.Array1.unsafe_set v i x

let[@inline] get (v : t) i : Gf.t = Bigarray.Array1.get v i
let[@inline] set (v : t) i (x : Gf.t) = Bigarray.Array1.set v i x

let fill (v : t) (x : Gf.t) = Bigarray.Array1.fill v x

let zero (v : t) = Bigarray.Array1.fill v 0L

(* A sub-view shares storage with its parent (no copy); the parent stays
   alive for as long as any view of it does. *)
let sub_view (v : t) ~pos ~len : t = Bigarray.Array1.sub v pos len

let blit ~src ~src_pos ~dst ~dst_pos ~len =
  if len > 0 then
    Bigarray.Array1.blit
      (Bigarray.Array1.sub src src_pos len)
      (Bigarray.Array1.sub dst dst_pos len)

let copy (v : t) : t =
  let out = create (length v) in
  if length v > 0 then Bigarray.Array1.blit v out;
  out

let of_array (a : Gf.t array) : t =
  let n = Array.length a in
  let v = create n in
  for i = 0 to n - 1 do
    unsafe_set v i (Array.unsafe_get a i)
  done;
  v

let to_array (v : t) : Gf.t array =
  Array.init (length v) (fun i -> unsafe_get v i)

let equal (a : t) (b : t) =
  length a = length b
  &&
  let rec go i = i >= length a || (Int64.equal (unsafe_get a i) (unsafe_get b i) && go (i + 1)) in
  go 0

(* --- allocation-free elementwise kernels -------------------------------- *)

(* Each kernel checks bounds once, then calls the C kernel (scalar, AVX2
   or NEON by the CPU's tier). [dst] may alias [a] or [b]: the kernels are
   elementwise. *)

module Native = Nocap_native.Native

let check2 name dst a =
  if length dst <> length a then invalid_arg name

let check3 name dst a b =
  if length dst <> length a || length a <> length b then invalid_arg name

let add_into ~dst a b =
  check3 "Fv.add_into" dst a b;
  Native.fv_add dst a b

let sub_into ~dst a b =
  check3 "Fv.sub_into" dst a b;
  Native.fv_sub dst a b

let mul_into ~dst a b =
  check3 "Fv.mul_into" dst a b;
  Native.fv_mul dst a b

let scale_into ~dst a c =
  check2 "Fv.scale_into" dst a;
  Native.fv_scale dst a c

(* dst <- dst + c * src : the inner loop of Orion's row combination. *)
let axpy_into ~dst c src =
  check2 "Fv.axpy_into" dst src;
  Native.fv_axpy dst c src

let fold f init (v : t) =
  let acc = ref init in
  for i = 0 to length v - 1 do
    acc := f !acc (unsafe_get v i)
  done;
  !acc

(* Gf sum without a closure: the common fold, allocation-free. *)
let sum (v : t) =
  let acc = ref Gf.zero in
  for i = 0 to length v - 1 do
    acc := Gf.add !acc (unsafe_get v i)
  done;
  !acc
