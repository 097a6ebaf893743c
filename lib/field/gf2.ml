type t = { c0 : Gf.t; c1 : Gf.t }

(* The non-residue: phi^2 = 7. *)
let w = 7L

let zero = { c0 = Gf.zero; c1 = Gf.zero }
let one = { c0 = Gf.one; c1 = Gf.zero }
let phi = { c0 = Gf.zero; c1 = Gf.one }

let of_base x = { c0 = x; c1 = Gf.zero }

let equal x y = Gf.equal x.c0 y.c0 && Gf.equal x.c1 y.c1

let add x y = { c0 = Gf.add x.c0 y.c0; c1 = Gf.add x.c1 y.c1 }
let sub x y = { c0 = Gf.sub x.c0 y.c0; c1 = Gf.sub x.c1 y.c1 }
let neg x = { c0 = Gf.neg x.c0; c1 = Gf.neg x.c1 }

let mul x y =
  (* (a + b phi)(c + d phi) = ac + 7bd + (ad + bc) phi. *)
  let ac = Gf.mul x.c0 y.c0 and bd = Gf.mul x.c1 y.c1 in
  {
    c0 = Gf.add ac (Gf.mul w bd);
    c1 = Gf.add (Gf.mul x.c0 y.c1) (Gf.mul x.c1 y.c0);
  }

let square x = mul x x

let mul_base x s = { c0 = Gf.mul x.c0 s; c1 = Gf.mul x.c1 s }

let pow x e =
  let acc = ref one and base = ref x and e = ref e in
  while not (Int64.equal !e 0L) do
    if Int64.logand !e 1L = 1L then acc := mul !acc !base;
    base := square !base;
    e := Int64.shift_right_logical !e 1
  done;
  !acc

let random rng = { c0 = Gf.random rng; c1 = Gf.random rng }

let pp fmt x = Format.fprintf fmt "(%a + %a*phi)" Gf.pp x.c0 Gf.pp x.c1
