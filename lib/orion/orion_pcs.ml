module Gf = Zk_field.Gf
module Codec = Zk_pcs.Codec
module Fv = Nocap_vec.Fv

let name = "orion"
let tag = '\001'

type params = Orion.params

let default_params = Orion.default_params
let test_params = { Orion.default_params with Orion.rows = 8 }

type param_error = Orion.param_error

let validate_params = Orion.validate_params
let param_error_to_string = Orion.param_error_to_string

type committed = Orion.committed
type commitment = Orion.commitment
type eval_proof = Orion.eval_proof

let commit = Orion.commit
let absorb_commitment = Orion.absorb_commitment
let commitment_num_vars (cm : commitment) = cm.Orion.num_vars
let open_at = Orion.prove_eval
let free_committed = Orion.free_committed
let verify = Orion.verify_eval
let proof_size_bytes = Orion.proof_size_bytes

let stats params (cm : commitment) (proof : eval_proof) =
  {
    Zk_pcs.Pcs.backend = name;
    num_vars = cm.Orion.num_vars;
    commitment_bytes = 32;
    proof_bytes = proof_size_bytes params cm proof;
    queries = Orion.num_openings proof;
  }

(* --- byte forms (layout shared with the pre-functor Serialize module, so
   Orion-backend proof blobs stay byte-compatible modulo the header) --- *)

let write_commitment buf (cm : commitment) =
  Codec.put_digest buf cm.Orion.root;
  Codec.put_int buf cm.Orion.num_vars;
  Codec.put_int buf cm.Orion.mat_rows;
  Codec.put_int buf cm.Orion.mat_cols

let read_commitment r =
  let ( let* ) = Result.bind in
  let* root = Codec.get_digest r in
  let* num_vars = Codec.get_len r in
  let* mat_rows = Codec.get_len r in
  let* mat_cols = Codec.get_len r in
  Ok { Orion.root; num_vars; mat_rows; mat_cols }

(* Per opening: index, length-prefixed column, path length, raw digests. *)
let write_eval_proof buf (p : eval_proof) =
  Codec.put_fv buf p.Orion.u;
  Codec.put_int buf (Array.length p.Orion.proximity);
  Array.iter (Codec.put_fv buf) p.Orion.proximity;
  Codec.put_int buf (Orion.num_openings p);
  let col = ref 0 and lane = ref 0 in
  Array.iteri
    (fun k j ->
      let h = p.Orion.col_height.(k) and l = p.Orion.path_len.(k) in
      Codec.put_int buf j;
      Codec.put_fv buf (Fv.sub_view p.Orion.col_values ~pos:!col ~len:h);
      Codec.put_int buf l;
      Codec.put_digest_lanes buf (Fv.sub_view p.Orion.paths ~pos:!lane ~len:(4 * l));
      col := !col + h;
      lane := !lane + (4 * l))
    p.Orion.col_index

(* Every field is read in wire order with the checks the boxed decoder ran
   ([Codec.get_fv_into] for a column, [Codec.need_digests] for a path), so
   a bad input fails with the same error at the same field. *)
let read_eval_proof r =
  let ( let* ) = Result.bind in
  let* u = Codec.get_fv r in
  let* proximity = Codec.get_array r Codec.get_fv in
  let* nq = Codec.get_len r in
  (* An opening spends at least 24 bytes on its three integers, so no more
     than [remaining / 24] of them can decode. *)
  let cap = min nq (Codec.remaining r / 24) in
  let col_index = Array.make cap 0 and col_height = Array.make cap 0 in
  let path_len = Array.make cap 0 in
  let values = Codec.fill () and paths = Codec.fill () in
  let rec go k =
    if k = nq then Ok ()
    else begin
      let* j = Codec.get_len r in
      let* h = Codec.get_len r in
      let* () = Codec.need r (8 * h) in
      Codec.reserve values h ~hint:(min (nq * h) (Codec.remaining r / 8));
      let* () = Codec.get_fv_into r ~len:h values.buf ~pos:values.used in
      values.used <- values.used + h;
      let* l = Codec.get_len r in
      let* () = Codec.need_digests r l in
      Codec.reserve paths (4 * l) ~hint:(min (4 * nq * l) (Codec.remaining r / 8));
      let* () = Codec.get_digest_lanes_into r ~count:l paths.buf ~pos:paths.used in
      paths.used <- paths.used + (4 * l);
      col_index.(k) <- j;
      col_height.(k) <- h;
      path_len.(k) <- l;
      go (k + 1)
    end
  in
  let* () = go 0 in
  Ok
    {
      Orion.u;
      proximity;
      col_index;
      col_height;
      col_values = Codec.contents values;
      path_len;
      paths = Codec.contents paths;
    }
