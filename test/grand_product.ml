module Gf = Zk_field.Gf
module Transcript = Zk_hash.Transcript
module Mle = Zk_poly.Mle
module Fv = Nocap_vec.Fv
module Spill = Nocap_vec.Spill
module Sumcheck = Zk_sumcheck.Sumcheck

type proof = {
  layer_claims : (Gf.t * Gf.t) array;
  sumchecks : Sumcheck.proof array;
}

type reduced_claim = { point : Gf.t array; value : Gf.t }

let log2_exact n =
  if n <= 0 || n land (n - 1) <> 0 then
    invalid_arg "Grand_product: size must be a power of two";
  let rec go k m = if m = 1 then k else go (k + 1) (m lsr 1) in
  go 0 n

(* eq * evens * odds, elementwise over a chunk. *)
let comb v out =
  Fv.mul_into ~dst:out v.(1) v.(2);
  Fv.mul_into ~dst:out out v.(0)

let prove transcript v =
  let n = Array.length v in
  let l = log2_exact n in
  (* Build the product tree bottom-up, keeping each layer's even and odd
     entries: P_i = halves.(i) multiplied elementwise, of 2^(l-i) entries. *)
  let halves = Array.make (l + 1) (Fv.create 0, Fv.create 0) in
  let layer = ref (Fv.of_array v) in
  for i = 1 to l do
    let prev = !layer in
    let half = Fv.length prev / 2 in
    let evens = Fv.create half and odds = Fv.create half in
    for y = 0 to half - 1 do
      Fv.unsafe_set evens y (Fv.unsafe_get prev (2 * y));
      Fv.unsafe_set odds y (Fv.unsafe_get prev ((2 * y) + 1))
    done;
    halves.(i) <- (evens, odds);
    layer := Fv.create half;
    Fv.mul_into ~dst:!layer evens odds
  done;
  let product = Fv.get !layer 0 in
  Transcript.absorb_int transcript "gp/num_vars" l;
  Transcript.absorb_gf transcript "gp/product" [| product |];
  let layer_claims = Array.make l (Gf.zero, Gf.zero) in
  let sumchecks = Array.make l { Sumcheck.round_polys = [||] } in
  let r = ref [||] in
  let claim = ref product in
  (* Descend from the root: tie P_k(r) to the layer below. *)
  for k = l downto 1 do
    let evens, odds = halves.(k) in
    let res =
      Sumcheck.prove transcript
        ~tables:(Array.map Spill.of_fv [| Mle.eq_fv !r; evens; odds |])
        ~comb:(Sumcheck.Vector { degree = 3; mults = 2; f = comb })
    in
    let p0 = res.Sumcheck.final_values.(1) and p1 = res.Sumcheck.final_values.(2) in
    layer_claims.(l - k) <- (p0, p1);
    sumchecks.(l - k) <- res.Sumcheck.proof;
    Transcript.absorb_gf transcript "gp/halves" [| p0; p1 |];
    let tau = Transcript.challenge_gf transcript "gp/tau" in
    (* P_{k-1}(rho, tau): the two half-claims are the endpoints of a line in
       the last variable. *)
    claim := Gf.add p0 (Gf.mul tau (Gf.sub p1 p0));
    r := Array.append res.Sumcheck.challenges [| tau |]
  done;
  (product, { layer_claims; sumchecks }, { point = !r; value = !claim })

let verify transcript ~num_vars ~product proof =
  let module E = Zk_pcs.Verify_error in
  let ( let* ) = Result.bind in
  let l = num_vars in
  let* () =
    if Array.length proof.layer_claims = l && Array.length proof.sumchecks = l then Ok ()
    else E.error E.Shape "wrong number of layers"
  in
  Transcript.absorb_int transcript "gp/num_vars" l;
  Transcript.absorb_gf transcript "gp/product" [| product |];
  let r = ref [||] in
  let claim = ref product in
  let rec descend step =
    if step >= l then Ok { point = !r; value = !claim }
    else begin
      let* res =
        Sumcheck.verify transcript ~degree:3 ~num_vars:step ~claim:!claim
          proof.sumchecks.(step)
      in
      let p0, p1 = proof.layer_claims.(step) in
      (* The reduced sumcheck value must equal eq(r, rho) * p0 * p1. *)
      let eq = Mle.eq_point !r res.Sumcheck.point in
      let* () =
        if Gf.equal res.Sumcheck.value (Gf.mul eq (Gf.mul p0 p1)) then Ok ()
        else
          Zk_pcs.Verify_error.errorf Zk_pcs.Verify_error.Sumcheck_mismatch
            "layer %d: half-claims inconsistent" step
      in
      Transcript.absorb_gf transcript "gp/halves" [| p0; p1 |];
      let tau = Transcript.challenge_gf transcript "gp/tau" in
      claim := Gf.add p0 (Gf.mul tau (Gf.sub p1 p0));
      r := Array.append res.Sumcheck.point [| tau |];
      descend (step + 1)
    end
  in
  descend 0
