(* Vector combiners in the form the sumcheck prover's [Vector] takes
   ([Fv.t array -> Fv.t -> unit], elementwise over a chunk), for the tests
   that pair them with the scalar forms the oracle takes. *)

module Fv = Nocap_vec.Fv

(* v0 *)
let first v out = Fv.blit ~src:v.(0) ~src_pos:0 ~dst:out ~dst_pos:0 ~len:(Fv.length out)

(* v0 * v1 * ... * v(k-1) *)
let prod_all v out =
  first v out;
  for j = 1 to Array.length v - 1 do
    Fv.mul_into ~dst:out out v.(j)
  done

(* A vector combiner as the prover takes it, with its degree and its
   multiplications per point. *)
let vector ?(mults = 0) degree f = Zk_sumcheck.Sumcheck.Vector { degree; mults; f }
