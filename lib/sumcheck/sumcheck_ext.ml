module Gf = Zk_field.Gf
module Gf2 = Zk_field.Gf2
module Transcript = Zk_hash.Transcript

type proof = { round_polys : Gf2.t array array }

type prover_result = {
  proof : proof;
  challenges : Gf2.t array;
  final_values : Gf2.t array;
  base_mults_equivalent : int;
}

type verifier_result = { point : Gf2.t array; value : Gf2.t }

let absorb_gf2 transcript label (v : Gf2.t array) =
  let flat = Array.concat (Array.to_list (Array.map (fun x -> [| x.Gf2.c0; x.Gf2.c1 |]) v)) in
  Transcript.absorb_gf transcript label flat

let challenge_gf2 transcript label =
  let c0 = Transcript.challenge_gf transcript (label ^ "/0") in
  let c1 = Transcript.challenge_gf transcript (label ^ "/1") in
  { Gf2.c0; c1 }

let prove transcript ~degree ~tables ~comb ~comb_mults ~claim =
  let k = Array.length tables in
  if k = 0 then invalid_arg "Sumcheck_ext.prove: no tables";
  let n = Array.length tables.(0) in
  let num_vars = Zk_util.Pow2.log2_exact "Sumcheck_ext" n in
  Transcript.absorb_int transcript "sumcheck-ext/num_vars" num_vars;
  Transcript.absorb_int transcript "sumcheck-ext/degree" degree;
  Transcript.absorb_gf transcript "sumcheck-ext/claim" [| claim |];
  let tables = Array.map (Array.map Gf2.of_base) tables in
  let len = ref n in
  let mults = ref 0 in
  let round_polys = Array.make num_vars [||] in
  let challenges = Array.make num_vars Gf2.zero in
  let vals = Array.make k Gf2.zero in
  let deltas = Array.make k Gf2.zero in
  for round = 0 to num_vars - 1 do
    let half = !len / 2 in
    let g = Array.make (degree + 1) Gf2.zero in
    for b = 0 to half - 1 do
      for j = 0 to k - 1 do
        let lo = tables.(j).(b) and hi = tables.(j).(b + half) in
        vals.(j) <- lo;
        deltas.(j) <- Gf2.sub hi lo
      done;
      for t = 0 to degree do
        if t > 0 then
          for j = 0 to k - 1 do
            vals.(j) <- Gf2.add vals.(j) deltas.(j)
          done;
        g.(t) <- Gf2.add g.(t) (comb vals)
      done;
      (* Cost accounting: in round 0 every operand is still base-field
         (the extension coefficients are zero), so the multiplies are base
         multiplies; once the first extension challenge folds in, each
         extension multiply costs 3 base multiplies (Karatsuba). *)
      let factor = if round = 0 then 1 else 3 in
      mults := !mults + ((degree + 1) * comb_mults * factor)
    done;
    round_polys.(round) <- g;
    absorb_gf2 transcript "sumcheck-ext/round" g;
    let r = challenge_gf2 transcript "sumcheck-ext/challenge" in
    challenges.(round) <- r;
    for j = 0 to k - 1 do
      for b = 0 to half - 1 do
        tables.(j).(b) <-
          Gf2.add tables.(j).(b) (Gf2.mul r (Gf2.sub tables.(j).(b + half) tables.(j).(b)))
      done
    done;
    (* Round-0 folds multiply an extension challenge by a base difference
       (2 base multiplies); later folds are full extension products. *)
    mults := !mults + ((if round = 0 then 2 else 3) * k * half);
    len := half
  done;
  let final_values = Array.map (fun t -> t.(0)) tables in
  {
    proof = { round_polys };
    challenges;
    final_values;
    base_mults_equivalent = !mults;
  }

(* The round polynomial at an extension point: {!Sumcheck.eval_round_poly}'s
   prefix/suffix products taken in GF(p^2), scaled by the same base-field
   weights. *)
let eval_round_poly (g : Gf2.t array) (r : Gf2.t) =
  let d = Array.length g - 1 in
  let w = Sumcheck.round_weights d in
  let factor j = Gf2.sub r (Gf2.of_base (Gf.of_int j)) in
  let suffix = Array.make (d + 1) Gf2.one in
  for i = d - 1 downto 0 do
    suffix.(i) <- Gf2.mul suffix.(i + 1) (factor (i + 1))
  done;
  let acc = ref Gf2.zero and prefix = ref Gf2.one in
  for i = 0 to d do
    acc := Gf2.add !acc (Gf2.mul_base (Gf2.mul g.(i) (Gf2.mul !prefix suffix.(i))) w.(i));
    prefix := Gf2.mul !prefix (factor i)
  done;
  !acc

let verify transcript ~degree ~num_vars ~claim proof =
  if degree < 1 then Error (Printf.sprintf "invalid sumcheck shape (degree %d)" degree)
  else if Array.length proof.round_polys <> num_vars then Error "wrong number of rounds"
  else begin
    Transcript.absorb_int transcript "sumcheck-ext/num_vars" num_vars;
    Transcript.absorb_int transcript "sumcheck-ext/degree" degree;
    Transcript.absorb_gf transcript "sumcheck-ext/claim" [| claim |];
    let expected = ref (Gf2.of_base claim) in
    let point = Array.make num_vars Gf2.zero in
    let rec go round =
      if round = num_vars then Ok { point; value = !expected }
      else begin
        let g = proof.round_polys.(round) in
        if Array.length g <> degree + 1 then
          Error (Printf.sprintf "round %d: wrong degree" round)
        else if not (Gf2.equal (Gf2.add g.(0) g.(1)) !expected) then
          Error (Printf.sprintf "round %d: g(0) + g(1) mismatch" round)
        else begin
          absorb_gf2 transcript "sumcheck-ext/round" g;
          let r = challenge_gf2 transcript "sumcheck-ext/challenge" in
          point.(round) <- r;
          expected := eval_round_poly g r;
          go (round + 1)
        end
      end
    in
    go 0
  end

let eval_mle_ext table point =
  let l = Zk_util.Pow2.log2_exact "Sumcheck_ext" (Array.length table) in
  if Array.length point <> l then invalid_arg "Sumcheck_ext.eval_mle_ext";
  let cur = ref (Array.map Gf2.of_base table) in
  Array.iter
    (fun r ->
      let half = Array.length !cur / 2 in
      cur :=
        Array.init half (fun b ->
            Gf2.add (!cur).(b) (Gf2.mul r (Gf2.sub (!cur).(b + half) (!cur).(b)))))
    point;
  (!cur).(0)
