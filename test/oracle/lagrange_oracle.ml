(* Naive Lagrange evaluation of a round polynomial tabulated at the nodes
   0..d, straight from the definition
   g(r) = sum_i g(i) * prod_{j <> i} (r - j) / (i - j):
   one base-field inversion per basis polynomial, no closed-form weights.
   The reference [Zk_sumcheck.Sumcheck.eval_round_poly] and
   [Zk_sumcheck.Sumcheck_ext.eval_round_poly] are checked against. *)

module Gf = Zk_field.Gf
module Gf2 = Zk_field.Gf2

(* prod_{j <> i} (i - j) over the nodes 0..d, as a base-field element. *)
let denominator d i =
  let acc = ref Gf.one in
  for j = 0 to d do
    if j <> i then acc := Gf.mul !acc (Gf.of_int (i - j))
  done;
  !acc

let eval (ys : Gf.t array) (r : Gf.t) =
  let d = Array.length ys - 1 in
  let acc = ref Gf.zero in
  for i = 0 to d do
    let num = ref Gf.one in
    for j = 0 to d do
      if j <> i then num := Gf.mul !num (Gf.sub r (Gf.of_int j))
    done;
    acc := Gf.add !acc (Gf.mul ys.(i) (Gf.div !num (denominator d i)))
  done;
  !acc

let eval_ext (ys : Gf2.t array) (r : Gf2.t) =
  let d = Array.length ys - 1 in
  let acc = ref Gf2.zero in
  for i = 0 to d do
    let num = ref Gf2.one in
    for j = 0 to d do
      if j <> i then num := Gf2.mul !num (Gf2.sub r (Gf2.of_base (Gf.of_int j)))
    done;
    acc := Gf2.add !acc (Gf2.mul_base (Gf2.mul ys.(i) !num) (Gf.inv (denominator d i)))
  done;
  !acc
