module Fr = Zk_field.Fr_bls
module Ntt = Zk_ntt.Ntt.Fr_ntt

type lc = (int * Fr.t) list

type circuit = {
  num_vars : int;
  num_public : int;
  constraints : (lc * lc * lc) array;
}

let lc_eval z lc =
  List.fold_left (fun acc (j, c) -> Fr.add acc (Fr.mul c z.(j))) Fr.zero lc

let satisfied circuit z =
  Array.length z = circuit.num_vars
  && Fr.equal z.(0) Fr.one
  && Array.for_all
       (fun (a, b, c) ->
         Fr.equal (Fr.mul (lc_eval z a) (lc_eval z b)) (lc_eval z c))
       circuit.constraints

let domain_size circuit = 1 lsl Zk_util.Pow2.log2_ceil (max 2 (Array.length circuit.constraints))

type setup = {
  tau : Fr.t;
  alpha : Fr.t;
  beta : Fr.t;
  delta : Fr.t;
  s_domain : int;
}

type proof = { pi_a : Fr.t; pi_b : Fr.t; pi_c : Fr.t }

let nonzero rng =
  let rec go () =
    let x = Fr.random rng in
    if Fr.is_zero x then go () else x
  in
  go ()

let setup rng circuit =
  let d = domain_size circuit in
  (* tau must avoid the evaluation domain (Z(tau) <> 0); random tau hits the
     domain with negligible probability, but re-draw to be exact. *)
  let rec pick_tau () =
    let t = nonzero rng in
    (* Z(tau) = tau^d - 1 *)
    let td = Fr.pow t [| Int64.of_int d; 0L; 0L; 0L |] in
    if Fr.equal td Fr.one then pick_tau () else t
  in
  {
    tau = pick_tau ();
    alpha = nonzero rng;
    beta = nonzero rng;
    delta = nonzero rng;
    s_domain = d;
  }

(* Lagrange basis values L_i(tau) over the radix-2 domain:
   L_i(tau) = Z(tau) * w^i / (d * (tau - w^i)). *)
let lagrange_at_tau ~d tau =
  let w = Fr.root_of_unity (Zk_util.Pow2.log2_floor d) in
  let z_tau = Fr.sub (Fr.pow tau [| Int64.of_int d; 0L; 0L; 0L |]) Fr.one in
  let d_inv = Fr.inv (Fr.of_int d) in
  let out = Array.make d Fr.zero in
  let wi = ref Fr.one in
  for i = 0 to d - 1 do
    out.(i) <-
      Fr.mul (Fr.mul z_tau !wi) (Fr.mul d_inv (Fr.inv (Fr.sub tau !wi)));
    wi := Fr.mul !wi w
  done;
  out

(* Per-variable QAP evaluations at tau: Aj(tau) = sum_i a_ij * L_i(tau). *)
let qap_at_tau circuit lagrange =
  let n = circuit.num_vars in
  let at = Array.make n Fr.zero in
  let bt = Array.make n Fr.zero in
  let ct = Array.make n Fr.zero in
  Array.iteri
    (fun i (a, b, c) ->
      let li = lagrange.(i) in
      let bump dst lc =
        List.iter (fun (j, coeff) -> dst.(j) <- Fr.add dst.(j) (Fr.mul coeff li)) lc
      in
      bump at a;
      bump bt b;
      bump ct c)
    circuit.constraints;
  (at, bt, ct)

(* Quotient polynomial h(x) = (A(x)B(x) - C(x)) / Z(x), computed with the
   standard coset trick: on the coset gH, Z(g w^i) = g^d - 1 is constant, so
   the division is a pointwise scaling. This is the 7-NTT pipeline that
   PipeZK's NTT engines accelerate. *)
let quotient_evals ~d u v w =
  let plan = Ntt.plan d in
  let to_coeffs evals =
    let a = Array.copy evals in
    Ntt.inverse plan a;
    a
  in
  let ua = to_coeffs u and va = to_coeffs v and wa = to_coeffs w in
  let g = Fr.multiplicative_generator in
  let shift coeffs =
    let out = Array.copy coeffs in
    let gi = ref Fr.one in
    for i = 0 to d - 1 do
      out.(i) <- Fr.mul out.(i) !gi;
      gi := Fr.mul !gi g
    done;
    Ntt.forward plan out;
    out
  in
  let uc = shift ua and vc = shift va and wc = shift wa in
  let z_coset = Fr.sub (Fr.pow g [| Int64.of_int d; 0L; 0L; 0L |]) Fr.one in
  let z_inv = Fr.inv z_coset in
  let h_coset =
    Array.init d (fun i -> Fr.mul z_inv (Fr.sub (Fr.mul uc.(i) vc.(i)) wc.(i)))
  in
  Ntt.inverse plan h_coset;
  (* Undo the coset shift to recover h's coefficients. *)
  let g_inv = Fr.inv g in
  let gi = ref Fr.one in
  for i = 0 to d - 1 do
    h_coset.(i) <- Fr.mul h_coset.(i) !gi;
    gi := Fr.mul !gi g_inv
  done;
  h_coset

let prove rng s circuit z =
  if not (satisfied circuit z) then invalid_arg "Groth16.prove: unsatisfied";
  let d = s.s_domain in
  let m = Array.length circuit.constraints in
  (* Evaluations of A.z, B.z, C.z per constraint (zero-padded to the domain). *)
  let u = Array.make d Fr.zero
  and v = Array.make d Fr.zero
  and w = Array.make d Fr.zero in
  Array.iteri
    (fun i (a, b, c) ->
      u.(i) <- lc_eval z a;
      v.(i) <- lc_eval z b;
      w.(i) <- lc_eval z c)
    circuit.constraints;
  ignore m;
  let lagrange = lagrange_at_tau ~d s.tau in
  let at, bt, ct = qap_at_tau circuit lagrange in
  let dot arr =
    let acc = ref Fr.zero in
    Array.iteri (fun j aj -> acc := Fr.add !acc (Fr.mul z.(j) aj)) arr;
    !acc
  in
  let a_tau = dot at and b_tau = dot bt in
  (* h(tau) * Z(tau). *)
  let h = quotient_evals ~d u v w in
  let h_tau =
    let acc = ref Fr.zero and ti = ref Fr.one in
    Array.iter
      (fun c ->
        acc := Fr.add !acc (Fr.mul c !ti);
        ti := Fr.mul !ti s.tau)
      h;
    !acc
  in
  let z_tau = Fr.sub (Fr.pow s.tau [| Int64.of_int d; 0L; 0L; 0L |]) Fr.one in
  let hz = Fr.mul h_tau z_tau in
  (* Private-input contribution to pi_C. *)
  let priv = ref Fr.zero in
  for j = circuit.num_public to circuit.num_vars - 1 do
    priv :=
      Fr.add !priv
        (Fr.mul z.(j)
           (Fr.add (Fr.mul s.beta at.(j)) (Fr.add (Fr.mul s.alpha bt.(j)) ct.(j))))
  done;
  let r = Fr.random rng and t = Fr.random rng in
  let pi_a = Fr.add s.alpha (Fr.add a_tau (Fr.mul r s.delta)) in
  let pi_b = Fr.add s.beta (Fr.add b_tau (Fr.mul t s.delta)) in
  let delta_inv = Fr.inv s.delta in
  let pi_c =
    Fr.add
      (Fr.mul (Fr.add !priv hz) delta_inv)
      (Fr.sub
         (Fr.add (Fr.mul t pi_a) (Fr.mul r pi_b))
         (Fr.mul (Fr.mul r t) s.delta))
  in
  { pi_a; pi_b; pi_c }

let verify s circuit public proof =
  if Array.length public <> circuit.num_public then false
  else begin
    let d = s.s_domain in
    let lagrange = lagrange_at_tau ~d s.tau in
    let at, bt, ct = qap_at_tau circuit lagrange in
    (* Public-input commitment, computed by the verifier. *)
    let ic = ref Fr.zero in
    for j = 0 to circuit.num_public - 1 do
      ic :=
        Fr.add !ic
          (Fr.mul public.(j)
             (Fr.add (Fr.mul s.beta at.(j)) (Fr.add (Fr.mul s.alpha bt.(j)) ct.(j))))
    done;
    (* Pairing identity in the exponent:
       pi_A * pi_B = alpha * beta + IC + pi_C * delta. *)
    let lhs = Fr.mul proof.pi_a proof.pi_b in
    let rhs =
      Fr.add (Fr.mul s.alpha s.beta) (Fr.add !ic (Fr.mul proof.pi_c s.delta))
    in
    Fr.equal lhs rhs
  end

type workload = { ntt_points : int; msm_g1_points : int; msm_g2_points : int }

let prover_workload ~n =
  let d = 1 lsl Zk_util.Pow2.log2_ceil (max 2 n) in
  {
    (* 3 inverse NTTs + 3 coset NTTs + 1 inverse NTT for h. *)
    ntt_points = 7 * d;
    (* MSMs over the A, C and H query bases (~n points each). *)
    msm_g1_points = 3 * n;
    (* The B query in G2 — the phase PipeZK offloads to the CPU. *)
    msm_g2_points = n;
  }
