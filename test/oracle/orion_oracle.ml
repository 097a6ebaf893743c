(* Column-at-a-time Orion verifier: the reference the batched
   [Zk_orion.Orion.verify_eval] is checked against. Each opened column is
   unpacked into a boxed array and a digest list, then checked alone —
   index, height, path length (the tree's depth),
   [Merkle_oracle.check_path] over [Merkle_oracle.leaf_of_column], the u
   dot product, each proximity dot product — and the first failing column
   is reported with its first failing check. The combinations are encoded
   with the boxed reference encoder ([Ecc_oracle.encode]). *)

module Gf = Zk_field.Gf
module Fv = Nocap_vec.Fv
module Mle = Zk_poly.Mle
module Merkle = Zk_merkle.Merkle
module Keccak = Zk_hash.Keccak
module Transcript = Zk_hash.Transcript
module Orion = Zk_orion.Orion
module E = Zk_pcs.Verify_error

let ( let* ) = Result.bind

(* Opening [k] as (index, boxed column, digest list). *)
let column (p : Orion.eval_proof) k =
  let start lens = Array.fold_left ( + ) 0 (Array.sub lens 0 k) in
  let c0 = start p.Orion.col_height and d0 = start p.Orion.path_len in
  ( p.Orion.col_index.(k),
    Array.init p.Orion.col_height.(k) (fun r -> Fv.get p.Orion.col_values (c0 + r)),
    List.init p.Orion.path_len.(k) (fun d -> Keccak.digest_at p.Orion.paths (d0 + d)) )

let verify_eval (params : Orion.params) (cm : Orion.commitment) transcript point value
    (proof : Orion.eval_proof) =
  let module Code = (val params.Orion.code : Zk_ecc.Linear_code.S) in
  let* () = Orion.validate_commitment params cm in
  let cols = cm.Orion.mat_cols in
  let* () =
    if Array.length point <> cm.Orion.num_vars then E.error E.Params "point dimension mismatch"
    else Ok ()
  in
  let q_row, q_col = Orion.split_point cm point in
  Transcript.absorb_gf transcript "orion/point" point;
  let proximity = Array.map Fv.to_array proof.Orion.proximity in
  let* rhos =
    if Array.length proximity <> params.Orion.proximity_count then
      E.error E.Shape "wrong number of proximity vectors"
    else if Array.exists (fun v -> Array.length v <> cols) proximity then
      E.error E.Shape "proximity vector has wrong length"
    else
      Ok
        (Array.map
           (fun v ->
             let rho = Transcript.challenge_gf_vec transcript "orion/rho" cm.Orion.mat_rows in
             Transcript.absorb_gf transcript "orion/proximity" v;
             rho)
           proximity)
  in
  let u = Fv.to_array proof.Orion.u in
  let* () = if Array.length u = cols then Ok () else E.error E.Shape "u has wrong length" in
  Transcript.absorb_gf transcript "orion/u" u;
  let bound = Code.blowup * cols in
  let indices =
    Transcript.challenge_indices transcript "orion/columns" ~bound ~count:Code.query_count
  in
  let* () =
    if Orion.num_openings proof = Code.query_count then Ok ()
    else E.error E.Shape "wrong number of column openings"
  in
  let encode = Ecc_oracle.encode (module Code) in
  let encoded_u = encode u in
  let encoded_prox = Array.map encode proximity in
  let eq_row = Mle.eq_table q_row in
  let expected_rows =
    cm.Orion.mat_rows + if params.Orion.zk then params.Orion.proximity_count else 0
  in
  let check_column k =
    let j, col, path = column proof k in
    if j <> indices.(k) then E.errorf E.Consistency "column %d: index mismatch" k
    else if Array.length col <> expected_rows then E.errorf E.Shape "column %d: wrong height" k
    else if List.length path <> Merkle.path_length bound then
      E.errorf E.Merkle_mismatch "column %d: wrong path length" k
    else
      let leaf = Merkle_oracle.leaf_of_column col in
      match Merkle_oracle.check_path ~root:cm.Orion.root ~index:j ~leaf ~path with
      | Error reason -> E.errorf E.Merkle_mismatch "column %d: %s" k reason
      | Ok () ->
        let dot coeffs =
          let acc = ref Gf.zero in
          for r = 0 to Array.length coeffs - 1 do
            acc := Gf.add !acc (Gf.mul coeffs.(r) col.(r))
          done;
          !acc
        in
        if not (Gf.equal encoded_u.(j) (dot eq_row)) then
          E.errorf E.Consistency "column %d: u consistency failed" k
        else
          let rec prox i =
            if i >= params.Orion.proximity_count then Ok ()
            else
              let expected = dot rhos.(i) in
              let expected =
                if params.Orion.zk then Gf.add expected col.(cm.Orion.mat_rows + i) else expected
              in
              if Gf.equal encoded_prox.(i).(j) expected then prox (i + 1)
              else E.errorf E.Consistency "column %d: proximity %d failed" k i
          in
          prox 0
  in
  let rec all k =
    if k >= Orion.num_openings proof then Ok ()
    else
      let* () = check_column k in
      all (k + 1)
  in
  let* () = all 0 in
  let eq_col = Mle.eq_table q_col in
  let v = ref Gf.zero in
  for j = 0 to cols - 1 do
    v := Gf.add !v (Gf.mul u.(j) eq_col.(j))
  done;
  if Gf.equal !v value then Ok () else E.error E.Consistency "evaluation mismatch"
