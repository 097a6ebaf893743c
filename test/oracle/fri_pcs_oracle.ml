(* Query-at-a-time FRI verifiers: the reference the batched
   [Zk_orion.Fri.check_queries] is checked against, through
   [Zk_orion.Fri_pcs.verify] and [Zk_orion.Fri.verify]. Spot checks are
   one (position, per-layer (even, odd, digest list)) tuple per query, and
   each query is walked alone ({!walk_queries}).

   It is a whole [Pcs.S] backend (same name, tag and wire form as
   [Fri_pcs]; commit and open delegate to it), so [Spartan.Make] over it
   verifies the very bytes the production backend does. *)

module Gf = Zk_field.Gf
module Fv = Nocap_vec.Fv
module Mle = Zk_poly.Mle
module Merkle = Zk_merkle.Merkle
module Keccak = Zk_hash.Keccak
module Transcript = Zk_hash.Transcript
module Codec = Zk_pcs.Codec
module Fri = Zk_orion.Fri
module Fri_pcs = Zk_orion.Fri_pcs
module E = Zk_pcs.Verify_error

let name = Fri_pcs.name
let tag = Fri_pcs.tag

type params = Fri_pcs.params

let default_params = Fri_pcs.default_params
let test_params = Fri_pcs.test_params

type param_error = Fri_pcs.param_error

let validate_params = Fri_pcs.validate_params
let param_error_to_string = Fri_pcs.param_error_to_string

type committed = Fri_pcs.committed
type commitment = Fri_pcs.commitment

type eval_proof = {
  round_polys : Gf.t array array;
  layer_roots : Merkle.digest array;
  final_constant : Gf.t;
  queries : (int * (Gf.t * Gf.t * Merkle.digest list) array) array;
}

(* The flat spot checks as one (position, per-layer (even, odd, path))
   tuple per query, and back. *)
let tuples_of_flat (q : Fri.queries) =
  let k = ref 0 and d = ref 0 in
  Array.mapi
    (fun i position ->
      ( position,
        Array.init q.Fri.layer_count.(i) (fun _ ->
            let len = q.Fri.path_len.(!k) in
            let opened =
              ( Fv.get q.Fri.pairs (2 * !k),
                Fv.get q.Fri.pairs ((2 * !k) + 1),
                List.init len (fun i -> Keccak.digest_at q.Fri.paths (!d + i)) )
            in
            incr k;
            d := !d + len;
            opened) ))
    q.Fri.positions

let flat_of_tuples queries =
  let opened = Array.concat (Array.to_list (Array.map snd queries)) in
  let paths = Array.concat (Array.to_list (Array.map (fun (_, _, p) -> Array.of_list p) opened)) in
  let flat = Fv.create (4 * Array.length paths) in
  Array.iteri (Keccak.set_digest flat) paths;
  {
    Fri.positions = Array.map fst queries;
    layer_count = Array.map (fun (_, o) -> Array.length o) queries;
    pairs = Fv.of_array (Array.concat (Array.to_list (Array.map (fun (a, b, _) -> [| a; b |]) opened)));
    path_len = Array.map (fun (_, _, p) -> List.length p) opened;
    paths = flat;
  }

let of_flat (p : Fri_pcs.eval_proof) =
  {
    round_polys = p.Fri_pcs.sumcheck.Zk_sumcheck.Sumcheck.round_polys;
    layer_roots = p.Fri_pcs.layer_roots;
    final_constant = p.Fri_pcs.final_constant;
    queries = tuples_of_flat p.Fri_pcs.queries;
  }

(* Each query walked alone, layer by layer: the path's length (the layer
   tree's depth), [Merkle_oracle.check_path] over
   [Merkle_oracle.leaf_of_column], the fold consistency, then the final
   constant.
   Layer [i] (of [2^(domain_log2 - i)] points, root [roots.(i)]) lies on
   the coset [shift^(2^i) <w_i>], so its leaf [j] divides by
   [shift^(2^i) * w_i^j]. The first failing query is reported with its
   first failing check. *)
let walk_queries ~shift ~roots ~domain_log2 ~challenges ~positions ~final_constant queries =
  let l = Array.length roots - 1 in
  let w_invs = Array.init l (fun i -> Gf.inv (Gf.root_of_unity (domain_log2 - i))) in
  let shift_invs = Array.make l (Gf.inv shift) in
  for i = 1 to l - 1 do
    shift_invs.(i) <- Gf.square shift_invs.(i - 1)
  done;
  let rec check_query qi =
    if qi >= Array.length queries then Ok ()
    else begin
      let position, opened = queries.(qi) in
      if position <> positions.(qi) then E.errorf E.Consistency "query %d: position mismatch" qi
      else if Array.length opened <> l + 1 then E.errorf E.Shape "query %d: layer count" qi
      else begin
        let rec walk i layer_size j exp =
          let half = layer_size / 2 in
          let leaf_pos = j mod half in
          let av, bv, path = opened.(i) in
          let leaf = Merkle_oracle.leaf_of_column [| av; bv |] in
          let checked =
            if List.length path <> domain_log2 - i - 1 then Error "wrong path length"
            else Merkle_oracle.check_path ~root:roots.(i) ~index:leaf_pos ~leaf ~path
          in
          match checked with
          | Error reason -> E.errorf E.Merkle_mismatch "query %d layer %d: %s" qi i reason
          | Ok () ->
            let value_at_j = if j >= half then bv else av in
            let consistent =
              match exp with None -> true | Some v -> Gf.equal v value_at_j
            in
            if not consistent then E.errorf E.Consistency "query %d layer %d: fold mismatch" qi i
            else if i = l then
              if Gf.equal av final_constant && Gf.equal bv final_constant then Ok ()
              else E.errorf E.Consistency "query %d: final layer not constant" qi
            else begin
              let x_inv =
                Gf.mul shift_invs.(i) (Gf.pow w_invs.(i) (Int64.of_int leaf_pos))
              in
              walk (i + 1) half leaf_pos (Some (Fri.fold_at ~x_inv challenges.(i) av bv))
            end
        in
        match walk 0 (1 lsl domain_log2) position None with
        | Error e -> Error e
        | Ok () -> check_query (qi + 1)
      end
    end
  in
  if Array.length queries <> Array.length positions then
    E.error E.Shape "wrong number of queries"
  else check_query 0

(* [Fri.verify] over the tuple form: the same transcript replay, then
   {!walk_queries}. *)
let fri_verify ~shift (params : Fri.params) transcript ~degree_bound ~layer_roots
    ~final_constant queries =
  let log_n = Fri.log2_exact degree_bound in
  if Array.length layer_roots <> log_n + 1 then E.error E.Shape "wrong number of layers"
  else begin
    Transcript.absorb_int transcript "fri/degree" degree_bound;
    Transcript.absorb_int transcript "fri/blowup" params.Fri.blowup_log2;
    Transcript.absorb_digest transcript "fri/root" layer_roots.(0);
    let challenges =
      Array.init log_n (fun i ->
          let beta = Transcript.challenge_gf transcript "fri/beta" in
          Transcript.absorb_digest transcript "fri/root" layer_roots.(i + 1);
          beta)
    in
    Transcript.absorb_gf transcript "fri/final" [| final_constant |];
    let domain_log2 = log_n + params.Fri.blowup_log2 in
    let positions =
      Transcript.challenge_indices transcript "fri/queries"
        ~bound:(1 lsl (domain_log2 - 1))
        ~count:params.Fri.num_queries
    in
    walk_queries ~shift ~roots:layer_roots ~domain_log2 ~challenges ~positions ~final_constant
      queries
  end

(* The boxed evaluations-to-coefficients map [Fri_pcs.commit] once ran:
   [l] passes of [Gf.sub] over a copied [Gf.t array], then an [Array.init]
   bit-reversal. The reference for [Fri_pcs.monomial_coeffs_into]. *)
let monomial_coeffs table =
  let n = Array.length table in
  let l = ref 0 in
  while 1 lsl !l < n do
    incr l
  done;
  let l = !l in
  let c = Array.copy table in
  let stride = ref 1 in
  while !stride < n do
    let s = !stride in
    let i = ref 0 in
    while !i < n do
      for j = !i to !i + s - 1 do
        c.(j + s) <- Gf.sub c.(j + s) c.(j)
      done;
      i := !i + (2 * s)
    done;
    stride := 2 * s
  done;
  let rev m =
    let acc = ref 0 and m = ref m in
    for _ = 1 to l do
      acc := (!acc lsl 1) lor (!m land 1);
      m := !m lsr 1
    done;
    !acc
  in
  Array.init n (fun m -> c.(rev m))

let commit = Fri_pcs.commit
let absorb_commitment = Fri_pcs.absorb_commitment
let commitment_num_vars = Fri_pcs.commitment_num_vars
let free_committed = Fri_pcs.free_committed

let open_at ?engine params committed transcript point =
  let value, proof = Fri_pcs.open_at ?engine params committed transcript point in
  (value, of_flat proof)

let verify ?engine params (cm : commitment) transcript point value proof =
  ignore (engine : Zk_pcs.Engine.t option);
  let ( let* ) = Result.bind in
  let* () = Fri_pcs.validate_commitment params cm in
  let l = cm.Fri_pcs.num_vars in
  let blowup_log2 = params.Fri_pcs.blowup_log2 in
  let num_queries = params.Fri_pcs.num_queries in
  let* () =
    if Array.length point = l then Ok () else E.error E.Params "point dimension mismatch"
  in
  let* () =
    if Array.length proof.round_polys = l then Ok ()
    else E.error E.Shape "wrong number of sumcheck rounds"
  in
  let* () =
    if Array.length proof.layer_roots = l then Ok ()
    else E.error E.Shape "wrong number of fold layers"
  in
  Transcript.absorb_gf transcript "fripcs/point" point;
  Transcript.absorb_gf transcript "fripcs/value" [| value |];
  let challenges = Array.make l Gf.zero in
  let expected = ref value in
  let* () =
    let rec round i =
      if i = l then Ok ()
      else begin
        let g = proof.round_polys.(i) in
        if Array.length g <> 3 then E.errorf E.Shape "round %d: wrong degree" i
        else if not (Gf.equal (Gf.add g.(0) g.(1)) !expected) then
          E.errorf E.Sumcheck_mismatch "round %d: g(0) + g(1) does not match the claim" i
        else begin
          Transcript.absorb_gf transcript "fripcs/round" g;
          let r = Transcript.challenge_gf transcript "fripcs/r" in
          challenges.(i) <- r;
          expected := Lagrange_oracle.eval g r;
          Transcript.absorb_digest transcript "fripcs/layer" proof.layer_roots.(i);
          round (i + 1)
        end
      end
    in
    round 0
  in
  Transcript.absorb_gf transcript "fripcs/final" [| proof.final_constant |];
  let* () =
    if Gf.equal !expected (Gf.mul proof.final_constant (Mle.eq_point point challenges))
    then Ok ()
    else E.error E.Sumcheck_mismatch "final claim does not match the folded constant"
  in
  let positions =
    Transcript.challenge_indices transcript "fripcs/queries"
      ~bound:(1 lsl (l + blowup_log2 - 1))
      ~count:num_queries
  in
  walk_queries ~shift:Gf.one
    ~roots:(Array.append [| cm.Fri_pcs.root |] proof.layer_roots)
    ~domain_log2:(l + blowup_log2) ~challenges ~positions
    ~final_constant:proof.final_constant proof.queries

let proof_size_bytes _params (_cm : commitment) proof =
  let field = 8 and digest = 32 and index = 8 in
  let round_bytes =
    Array.fold_left (fun acc g -> acc + (field * Array.length g)) 0 proof.round_polys
  in
  let query_bytes =
    Array.fold_left
      (fun acc (_, opened) ->
        acc + index
        + Array.fold_left
            (fun acc (_, _, path) -> acc + (2 * field) + (digest * List.length path))
            0 opened)
      0 proof.queries
  in
  round_bytes + (digest * Array.length proof.layer_roots) + field + query_bytes

let stats params (cm : commitment) proof =
  {
    Zk_pcs.Pcs.backend = name;
    num_vars = cm.Fri_pcs.num_vars;
    commitment_bytes = 32;
    proof_bytes = proof_size_bytes params cm proof;
    queries = Array.length proof.queries;
  }

let write_commitment = Fri_pcs.write_commitment
let read_commitment = Fri_pcs.read_commitment

let write_eval_proof buf p =
  Codec.put_int buf (Array.length p.round_polys);
  Array.iter (Codec.put_gf_array buf) p.round_polys;
  Codec.put_int buf (Array.length p.layer_roots);
  Array.iter (Codec.put_digest buf) p.layer_roots;
  Codec.put_gf buf p.final_constant;
  Codec.put_int buf (Array.length p.queries);
  Array.iter
    (fun (position, opened) ->
      Codec.put_int buf position;
      Codec.put_int buf (Array.length opened);
      Array.iter
        (fun (a, b, path) ->
          Codec.put_gf buf a;
          Codec.put_gf buf b;
          Codec.put_int buf (List.length path);
          List.iter (Codec.put_digest buf) path)
        opened)
    p.queries

let read_eval_proof r =
  let ( let* ) = Result.bind in
  let* round_polys = Codec.get_array r Codec_oracle.get_gf_array in
  let* layer_roots = Codec.get_array r Codec.get_digest in
  let* final_constant = Codec.get_gf r in
  let* queries =
    Codec.get_array r (fun r ->
        let* position = Codec.get_len r in
        let* opened =
          Codec.get_array r (fun r ->
              let* a = Codec.get_gf r in
              let* b = Codec.get_gf r in
              let* path = Codec.get_array r Codec.get_digest in
              Ok (a, b, Array.to_list path))
        in
        Ok (position, opened))
  in
  Ok { round_polys; layer_roots; final_constant; queries }
