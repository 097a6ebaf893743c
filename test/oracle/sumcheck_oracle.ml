(* The sumcheck prover's byte oracle: boxed tables and the scalar form of
   the combiner, evaluated point by point with the same chunking and the
   same stats as [Zk_sumcheck.Sumcheck.prove]. Its proofs, challenges and
   final values must be byte-identical to the production prover's for
   every budget and domain count. *)

module Gf = Zk_field.Gf
module Transcript = Zk_hash.Transcript
module Pool = Nocap_parallel.Pool
module Fv = Nocap_vec.Fv
module Spill = Nocap_vec.Spill
open Zk_sumcheck.Sumcheck

(* The scalar form of [Sumcheck.Eq_abc]: eq * (az * bz - cz) over
   [| eq; az; bz; cz |]. *)
let spartan_comb_scalar v = Gf.mul v.(0) (Gf.sub (Gf.mul v.(1) v.(2)) v.(3))

(* The scalar form of [Sumcheck.Eq_abc_batch rho]: eq * sum_i rho.(i) *
   (a_i * b_i - c_i) over [| eq; a_1; b_1; c_1; ... |]. *)
let eq_abc_batch_scalar rho v =
  let acc = ref Gf.zero in
  Array.iteri
    (fun i r ->
      let a = v.((3 * i) + 1) and b = v.((3 * i) + 2) and c = v.((3 * i) + 3) in
      acc := Gf.add !acc (Gf.mul r (Gf.sub (Gf.mul a b) c)))
    rho;
  Gf.mul v.(0) !acc

(* --- the two-pass round ------------------------------------------------

   The fused round kernel's oracle: the round polynomial on the OCaml
   vector loops of [Fv_oracle] (one [lerp_into] per table for each t >= 2
   into scratch vectors, the vector combiner, an [Fv.sum] per point), then
   a separate fold pass. [Sumcheck.round_kernel]'s g and folded halves
   must be bit-equal to these on every kernel tier. *)

(* The vector forms of [Sumcheck.Eq_abc] and [Sumcheck.Product]. *)
let eq_abc_vector v out =
  Fv_oracle.mul_into ~dst:out v.(1) v.(2);
  Fv_oracle.sub_into ~dst:out out v.(3);
  Fv_oracle.mul_into ~dst:out out v.(0)

let product_vector v out = Fv_oracle.mul_into ~dst:out v.(0) v.(1)

(* The vector form of [Sumcheck.Eq_abc_batch rho]. *)
let eq_abc_batch_vector rho v out =
  let tmp = Fv.create (Fv.length out) in
  Fv.zero out;
  Array.iteri
    (fun i r ->
      Fv_oracle.mul_into ~dst:tmp v.((3 * i) + 1) v.((3 * i) + 2);
      Fv_oracle.sub_into ~dst:tmp tmp v.((3 * i) + 3);
      Fv_oracle.axpy_into ~dst:out r tmp)
    rho;
  Fv_oracle.mul_into ~dst:out out v.(0)

let eval_block ~degree ~comb ~lo ~hi g =
  let m = Fv.length lo.(0) in
  let out = Fv.create m in
  let point t tabs =
    comb tabs out;
    g.(t) <- Gf.add g.(t) (Fv.sum out)
  in
  point 0 lo;
  point 1 hi;
  let pts = Array.map (fun _ -> Fv.create m) lo in
  for t = 2 to degree do
    let c = Gf.of_int t in
    Array.iteri (fun j p -> Fv_oracle.lerp_into ~dst:p lo.(j) hi.(j) c) pts;
    point t pts
  done

(* g(0..degree) over the pairs (lo.(j).(b), hi.(j).(b)), 1024 at a time. *)
let round_poly ~degree ~comb ~lo ~hi =
  Pool.fold_chunks ~chunk:1024 ~grain:1024 ~n:(Fv.length lo.(0))
    ~init:(Array.make (degree + 1) Gf.zero)
    ~body:(fun a b ->
      let view t = Fv.sub_view t ~pos:a ~len:(b - a) in
      let g = Array.make (degree + 1) Gf.zero in
      eval_block ~degree ~comb ~lo:(Array.map view lo) ~hi:(Array.map view hi) g;
      g)
    ~combine:(fun acc part -> Array.map2 Gf.add acc part)
    ()

(* dst.(j) <- lo.(j) + r * (hi.(j) - lo.(j)). *)
let fold ~dst ~lo ~hi r =
  Array.iteri (fun j d -> Fv_oracle.lerp_into ~dst:d lo.(j) hi.(j) r) dst

(* Boxed tables as fresh RAM-backed spill vectors, the form the production
   prover takes. *)
let spills tables = Array.map (fun t -> Spill.of_fv (Fv.of_array t)) tables

let log2_exact n =
  if n <= 0 || n land (n - 1) <> 0 then
    invalid_arg "Sumcheck_oracle: table size must be a power of two";
  let rec go k m = if m = 1 then k else go (k + 1) (m lsr 1) in
  go 0 n

let prove_arrays ?(comb_mults = 0) transcript ~degree ~tables ~comb ~claim =
  let k = Array.length tables in
  if k = 0 then invalid_arg "Sumcheck_oracle.prove_arrays: no tables";
  let n = Array.length tables.(0) in
  let num_vars = log2_exact n in
  Array.iter
    (fun t ->
      if Array.length t <> n then
        invalid_arg "Sumcheck_oracle.prove_arrays: table size mismatch")
    tables;
  Transcript.absorb_int transcript "sumcheck/num_vars" num_vars;
  Transcript.absorb_int transcript "sumcheck/degree" degree;
  Transcript.absorb_gf transcript "sumcheck/claim" [| claim |];
  let tables = Array.map Array.copy tables in
  let len = ref n in
  let mults = ref 0 and adds = ref 0 in
  let round_polys = Array.make num_vars [||] in
  let challenges = Array.make num_vars Gf.zero in
  for round = 0 to num_vars - 1 do
    let half = !len / 2 in
    (* Round polynomial g(t) at t = 0..degree. For each b, each table
       restricted to the top variable is the line lo + t*(hi - lo); we walk t
       by repeated addition of the delta, avoiding multiplications.

       The b-range splits into chunks evaluated in parallel, each producing
       a partial g; partials are added back in chunk order (and Gf addition
       is exact), so g is byte-identical for every domain count. *)
    let eval_chunk lo_b hi_b =
      let g = Array.make (degree + 1) Gf.zero in
      let vals = Array.make k Gf.zero in
      let deltas = Array.make k Gf.zero in
      for b = lo_b to hi_b - 1 do
        for j = 0 to k - 1 do
          let lo = tables.(j).(b) and hi = tables.(j).(b + half) in
          vals.(j) <- lo;
          deltas.(j) <- Gf.sub hi lo
        done;
        for t = 0 to degree do
          if t > 0 then
            for j = 0 to k - 1 do
              vals.(j) <- Gf.add vals.(j) deltas.(j)
            done;
          g.(t) <- Gf.add g.(t) (comb vals)
        done
      done;
      g
    in
    let g =
      Pool.fold_chunks ~chunk:1024
        (* One index evaluates the combiner at degree+1 points; the fixed
           chunk:1024 pins the combine order for every grain. *)
        ~grain:(Pool.grain_of_ns (max 1 ((degree + 1) * (comb_mults + k) * 20)))
        ~n:half
        ~init:(Array.make (degree + 1) Gf.zero)
        ~body:eval_chunk
        ~combine:(fun acc part ->
          for t = 0 to degree do
            acc.(t) <- Gf.add acc.(t) part.(t)
          done;
          acc)
        ()
    in
    adds := !adds + (half * (degree + 1) * (k + 1));
    mults := !mults + (half * (degree + 1) * comb_mults);
    round_polys.(round) <- g;
    Transcript.absorb_gf transcript "sumcheck/round" g;
    let r = Transcript.challenge_gf transcript "sumcheck/challenge" in
    challenges.(round) <- r;
    (* Fold every table: T(b) <- T(b) + r * (T(b + half) - T(b)); writes to
       b < half are disjoint from the reads at b + half. *)
    for j = 0 to k - 1 do
      let t = tables.(j) in
      Pool.run ~grain:(Pool.grain_of_ns 15) ~n:half (fun lo hi ->
          for b = lo to hi - 1 do
            t.(b) <- Gf.add t.(b) (Gf.mul r (Gf.sub t.(b + half) t.(b)))
          done)
    done;
    mults := !mults + (k * half);
    adds := !adds + (2 * k * half);
    len := half
  done;
  let final_values = Array.map (fun t -> t.(0)) tables in
  {
    proof = { round_polys };
    claim;
    challenges;
    final_values;
    stats = { rounds = num_vars; mults = !mults; adds = !adds };
  }

