module Fq = Zk_field.Fq_bls
module Fr = Zk_field.Fr_bls
module Limbs = Zk_field.Limbs

(* Jacobian coordinates: (X, Y, Z) represents the affine point
   (X / Z^2, Y / Z^3); Z = 0 encodes the point at infinity. *)
type t = { x : Fq.t; y : Fq.t; z : Fq.t }

let b_coeff = Fq.of_int 4

let infinity = { x = Fq.one; y = Fq.one; z = Fq.zero }

let is_infinity p = Fq.is_zero p.z

let is_on_curve p =
  if is_infinity p then true
  else begin
    (* Y^2 = X^3 + 4 Z^6 in Jacobian form. *)
    let z2 = Fq.square p.z in
    let z6 = Fq.mul (Fq.square z2) z2 in
    Fq.equal (Fq.square p.y) (Fq.add (Fq.mul (Fq.square p.x) p.x) (Fq.mul b_coeff z6))
  end

let of_affine ~x ~y =
  let p = { x; y; z = Fq.one } in
  if not (is_on_curve p) then invalid_arg "G1.of_affine: point not on curve";
  p

let to_affine p =
  if is_infinity p then None
  else begin
    let zinv = Fq.inv p.z in
    let zinv2 = Fq.square zinv in
    Some (Fq.mul p.x zinv2, Fq.mul p.y (Fq.mul zinv2 zinv))
  end

let generator =
  of_affine
    ~x:
      (Fq.of_hex
         ("17f1d3a73197d7942695638c4fa9ac0fc3688c4f9774b905a14e3a3f171bac58"
        ^ "6c55e83ff97a1aeffb3af00adb22c6bb"))
    ~y:
      (Fq.of_hex
         ("08b3f481e3aaa0f1a09e30ed741d8ae4fcf5e095d5d00af600db18cb2c04b3ed"
        ^ "d03cc744a2888ae40caa232946c5e7e1"))

let equal p q =
  match (is_infinity p, is_infinity q) with
  | true, true -> true
  | true, false | false, true -> false
  | false, false ->
    (* Cross-multiplied comparison avoids inversions. *)
    let pz2 = Fq.square p.z and qz2 = Fq.square q.z in
    Fq.equal (Fq.mul p.x qz2) (Fq.mul q.x pz2)
    && Fq.equal (Fq.mul p.y (Fq.mul qz2 q.z)) (Fq.mul q.y (Fq.mul pz2 p.z))

let neg p = if is_infinity p then p else { p with y = Fq.neg p.y }

(* dbl-2009-l: 2M + 5S for a = 0 curves. *)
let double p =
  if is_infinity p then p
  else begin
    let a = Fq.square p.x in
    let b = Fq.square p.y in
    let c = Fq.square b in
    let d =
      Fq.double (Fq.sub (Fq.sub (Fq.square (Fq.add p.x b)) a) c)
    in
    let e = Fq.add a (Fq.double a) in
    let f = Fq.square e in
    let x3 = Fq.sub f (Fq.double d) in
    let y3 = Fq.sub (Fq.mul e (Fq.sub d x3)) (Fq.double (Fq.double (Fq.double c))) in
    let z3 = Fq.double (Fq.mul p.y p.z) in
    { x = x3; y = y3; z = z3 }
  end

(* add-2007-bl: 11M + 5S. *)
let add p q =
  if is_infinity p then q
  else if is_infinity q then p
  else begin
    let z1z1 = Fq.square p.z in
    let z2z2 = Fq.square q.z in
    let u1 = Fq.mul p.x z2z2 in
    let u2 = Fq.mul q.x z1z1 in
    let s1 = Fq.mul p.y (Fq.mul q.z z2z2) in
    let s2 = Fq.mul q.y (Fq.mul p.z z1z1) in
    let h = Fq.sub u2 u1 in
    let r = Fq.double (Fq.sub s2 s1) in
    if Fq.is_zero h then
      if Fq.is_zero r then double p else infinity
    else begin
      let i = Fq.square (Fq.double h) in
      let j = Fq.mul h i in
      let v = Fq.mul u1 i in
      let x3 = Fq.sub (Fq.sub (Fq.square r) j) (Fq.double v) in
      let y3 = Fq.sub (Fq.mul r (Fq.sub v x3)) (Fq.double (Fq.mul s1 j)) in
      let z3 =
        Fq.mul (Fq.sub (Fq.sub (Fq.square (Fq.add p.z q.z)) z1z1) z2z2) h
      in
      { x = x3; y = y3; z = z3 }
    end
  end

let scalar_mul k p =
  let bits = Fr.to_limbs k in
  let n = Limbs.bits bits in
  let acc = ref infinity in
  for i = n - 1 downto 0 do
    acc := double !acc;
    if Limbs.bit bits i then acc := add !acc p
  done;
  !acc

let random rng = scalar_mul (Fr.random rng) generator
