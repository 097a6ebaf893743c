module Gf = Zk_field.Gf
module Transcript = Zk_hash.Transcript
module Mle = Zk_poly.Mle
module R1cs = Zk_r1cs.R1cs
module Sumcheck = Zk_sumcheck.Sumcheck
module Orion = Zk_orion.Orion
module Fv = Nocap_vec.Fv
module Spill = Nocap_vec.Spill

type proof = {
  commitments : Orion.commitment array;
  reps : rep_proof array;
}

and rep_proof = {
  sc1 : Sumcheck.proof;
  claims_abc : (Gf.t * Gf.t * Gf.t) array;
  sc2 : Sumcheck.proof;
  vws : Gf.t array;
  w_opens : Orion.eval_proof array;
}

let start_transcript params inst ios =
  let t = Transcript.create "spartan-orion-batch" in
  Transcript.absorb_digest t "instance" inst.R1cs.digest;
  Transcript.absorb_int t "repetitions" params.Spartan.repetitions;
  Transcript.absorb_int t "batch" (Array.length ios);
  Array.iter (Transcript.absorb_gf t "io") ios;
  t

let prove ?engine ?rng params inst assignments =
  let engine = Zk_pcs.Engine.resolve engine in
  let rng = match rng with Some r -> r | None -> Zk_util.Rng.create 0xA66_CAFEL in
  let k = Array.length assignments in
  if k = 0 then invalid_arg "Aggregate.prove: empty batch";
  let l = inst.R1cs.log_size in
  let n = R1cs.size inst in
  (* Spartan's table fills, in RAM with one block per table. Every
     instance's Az/Bz/Cz is checked while it is filled, so an unsatisfied
     batch raises before any commitment work. *)
  Array.iter (R1cs.check_assignment inst) assignments;
  let abc =
    Array.concat
      (List.map
         (fun z ->
           let az, bz, cz = Spartan.fill_abc ~budget:None inst z in
           [| az; bz; cz |])
         (Array.to_list assignments))
  in
  let ios = Array.map (R1cs.public_io inst) assignments in
  let transcript = start_transcript params inst ios in
  let committed_and_cm =
    Array.map
      (fun z -> Orion.commit ~engine params.Spartan.pcs rng (R1cs.witness inst z))
      assignments
  in
  Array.iter (fun (_, cm) -> Orion.absorb_commitment transcript cm) committed_and_cm;
  let reps =
    Array.init params.Spartan.repetitions (fun _ ->
        let rho = Transcript.challenge_gf_vec transcript "rho" k in
        let tau = Transcript.challenge_gf_vec transcript "tau" l in
        let eq_tau = Spartan.fill_eq ~tag:"batch-eqtau" ~budget:None tau in
        let r1 =
          Sumcheck.prove transcript ~tables:(Array.append [| eq_tau |] abc)
            ~comb:(Sumcheck.Eq_abc_batch rho)
        in
        let rx = r1.Sumcheck.challenges in
        let claims_abc =
          Array.init k (fun i ->
              ( r1.Sumcheck.final_values.((3 * i) + 1),
                r1.Sumcheck.final_values.((3 * i) + 2),
                r1.Sumcheck.final_values.((3 * i) + 3) ))
        in
        Array.iter
          (fun (va, vb, vc) ->
            Transcript.absorb_gf transcript "claims-abc" [| va; vb; vc |])
          claims_abc;
        let r_abc = Transcript.challenge_gf_vec transcript "r-abc" 3 in
        let sigma = Transcript.challenge_gf_vec transcript "sigma" k in
        (* The M-table is built once for the whole batch. *)
        let m_table = Spartan.fill_m ~budget:None inst ~rx ~r_abc in
        let z_comb = Fv.create n in
        Fv.zero z_comb;
        Array.iteri (fun i z -> Fv.axpy_into ~dst:z_comb sigma.(i) z) assignments;
        let r2 =
          Sumcheck.prove transcript ~tables:[| m_table; Spill.of_fv z_comb |]
            ~comb:Sumcheck.Product
        in
        let ry = r2.Sumcheck.challenges in
        let ry_rest = Array.sub ry 1 (l - 1) in
        let opens =
          Array.map
            (fun (committed, _) ->
              Orion.prove_eval ~engine params.Spartan.pcs committed transcript
                ry_rest)
            committed_and_cm
        in
        let vws = Array.map fst opens in
        Transcript.absorb_gf transcript "vws" vws;
        { sc1 = r1.Sumcheck.proof; claims_abc; sc2 = r2.Sumcheck.proof; vws;
          w_opens = Array.map snd opens })
  in
  { commitments = Array.map snd committed_and_cm; reps }

let verify ?engine params inst ~ios proof =
  let module E = Zk_pcs.Verify_error in
  let engine = Zk_pcs.Engine.resolve engine in
  let ( let* ) = Result.bind in
  let k = Array.length ios in
  let* () =
    if k = 0 then E.error E.Shape "empty batch"
    else if Array.length proof.commitments <> k then
      E.error E.Shape "commitment count mismatch"
    else if Array.length proof.reps <> params.Spartan.repetitions then
      E.error E.Shape "wrong number of repetitions"
    else Ok ()
  in
  let* () =
    if Array.for_all (fun io -> Array.length io >= 1 && Gf.equal io.(0) Gf.one) ios
    then Ok ()
    else E.error E.Params "every io must start with the constant 1"
  in
  let l = inst.R1cs.log_size in
  let* () =
    if l >= 1 then Ok ()
    else E.error E.Params "instance must have at least one variable"
  in
  let transcript = start_transcript params inst ios in
  Array.iter (Orion.absorb_commitment transcript) proof.commitments;
  let rec check_rep r =
    if r >= Array.length proof.reps then Ok ()
    else begin
      let rep = proof.reps.(r) in
      let* () =
        if Array.length rep.claims_abc = k && Array.length rep.vws = k
           && Array.length rep.w_opens = k
        then Ok ()
        else Zk_pcs.Verify_error.error Zk_pcs.Verify_error.Shape
               "per-instance component count mismatch"
      in
      let rho = Transcript.challenge_gf_vec transcript "rho" k in
      let tau = Transcript.challenge_gf_vec transcript "tau" l in
      let* v1 =
        Sumcheck.verify transcript ~degree:3 ~num_vars:l ~claim:Gf.zero rep.sc1
      in
      let rx = v1.Sumcheck.point in
      let eq_tau_rx = Mle.eq_point tau rx in
      let expected1 =
        let acc = ref Gf.zero in
        Array.iteri
          (fun i (va, vb, vc) ->
            acc := Gf.add !acc (Gf.mul rho.(i) (Gf.sub (Gf.mul va vb) vc)))
          rep.claims_abc;
        Gf.mul eq_tau_rx !acc
      in
      let* () =
        if Gf.equal expected1 v1.Sumcheck.value then Ok ()
        else
          Zk_pcs.Verify_error.errorf Zk_pcs.Verify_error.Sumcheck_mismatch
            "rep %d: batched sumcheck-1 mismatch" r
      in
      Array.iter
        (fun (va, vb, vc) ->
          Transcript.absorb_gf transcript "claims-abc" [| va; vb; vc |])
        rep.claims_abc;
      let r_abc = Transcript.challenge_gf_vec transcript "r-abc" 3 in
      let sigma = Transcript.challenge_gf_vec transcript "sigma" k in
      let claim2 =
        let acc = ref Gf.zero in
        Array.iteri
          (fun i (va, vb, vc) ->
            let combined =
              Gf.add
                (Gf.mul r_abc.(0) va)
                (Gf.add (Gf.mul r_abc.(1) vb) (Gf.mul r_abc.(2) vc))
            in
            acc := Gf.add !acc (Gf.mul sigma.(i) combined))
          rep.claims_abc;
        !acc
      in
      let* v2 =
        Sumcheck.verify transcript ~degree:2 ~num_vars:l ~claim:claim2 rep.sc2
      in
      let ry = v2.Sumcheck.point in
      (* One O(nnz) matrix evaluation serves the whole batch. *)
      let m_at_ry = Spartan.abc_eval inst ~rx ~ry ~r_abc in
      let ry_rest = Array.sub ry 1 (l - 1) in
      let z_comb_at_ry =
        let acc = ref Gf.zero in
        Array.iteri
          (fun i io ->
            let z_i =
              Gf.add
                (Gf.mul (Gf.sub Gf.one ry.(0)) rep.vws.(i))
                (Gf.mul ry.(0) (Spartan.io_mle_eval io ry_rest))
            in
            acc := Gf.add !acc (Gf.mul sigma.(i) z_i))
          ios;
        !acc
      in
      let* () =
        if Gf.equal (Gf.mul m_at_ry z_comb_at_ry) v2.Sumcheck.value then Ok ()
        else
          Zk_pcs.Verify_error.errorf Zk_pcs.Verify_error.Sumcheck_mismatch
            "rep %d: batched sumcheck-2 mismatch" r
      in
      let rec check_open i =
        if i >= k then Ok ()
        else
          let* () =
            Orion.verify_eval ~engine params.Spartan.pcs proof.commitments.(i)
              transcript ry_rest rep.vws.(i) rep.w_opens.(i)
          in
          check_open (i + 1)
      in
      let* () = check_open 0 in
      Transcript.absorb_gf transcript "vws" rep.vws;
      check_rep (r + 1)
    end
  in
  check_rep 0

let proof_size_bytes params proof =
  let field = 8 and digest = 32 in
  let rep_bytes rep =
    Sumcheck.proof_size_bytes rep.sc1
    + (3 * field * Array.length rep.claims_abc)
    + Sumcheck.proof_size_bytes rep.sc2
    + (field * Array.length rep.vws)
    + Array.fold_left
        (fun acc (i, o) ->
          acc + Orion.proof_size_bytes params.Spartan.pcs proof.commitments.(i) o)
        0
        (Array.mapi (fun i o -> (i, o)) rep.w_opens)
  in
  (digest * Array.length proof.commitments)
  + Array.fold_left (fun acc r -> acc + rep_bytes r) 0 proof.reps
