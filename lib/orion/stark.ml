module Gf = Zk_field.Gf
module Ntt_fv = Zk_ntt.Ntt.Gf_fv
module Merkle = Zk_merkle.Merkle
module Transcript = Zk_hash.Transcript
module Fv = Nocap_vec.Fv

type proof = {
  trace_root : Merkle.digest;
  fri : Fri.proof;
  (* Per FRI query: openings of the committed trace LDE at the six positions
     needed to recompute the composition polynomial at the query's pair. *)
  openings : (Gf.t * Merkle.digest list) array array;
}

let params = Fri.default_params

let trace_of ~n ~a0 ~a1 =
  if n < 4 then invalid_arg "Stark.trace_of: n >= 4";
  ignore (Fri.log2_exact n);
  let t = Array.make n Gf.zero in
  t.(0) <- a0;
  t.(1) <- a1;
  for i = 2 to n - 1 do
    t.(i) <- Gf.add t.(i - 1) t.(i - 2)
  done;
  t

let shift = Gf.multiplicative_generator

(* Trace LDE over the coset shift * <w>, w the 4n-th root: the trace's
   coefficients, scaled by shift^i and zero-padded, then one NTT. *)
let trace_lde t =
  let n = Array.length t in
  let domain = 4 * n in
  let evals = Fv.create domain in
  Fv.zero evals;
  let coeffs = Fv.sub_view evals ~pos:0 ~len:n in
  Fv.write_array t ~src_pos:0 coeffs ~dst_pos:0 ~len:n;
  Ntt_fv.inverse (Ntt_fv.plan n) coeffs;
  let si = ref Gf.one in
  for i = 0 to n - 1 do
    Fv.set coeffs i (Gf.mul (Fv.get coeffs i) !si);
    si := Gf.mul !si shift
  done;
  Ntt_fv.forward (Ntt_fv.plan domain) evals;
  evals

let commit_trace lde =
  (* Leaf j hashes the one-element column [lde.(j)]. *)
  Merkle.build (Merkle.leaves_of_matrix ~rows:1 ~cols:(Fv.length lde) lde)

(* Composition value at LDE index j, from the three trace values the
   transition touches. *)
let composition ~n ~a0 ~a1 ~last ~alphas ~g ~x t_j t_j4 t_j8 =
  let xn = Gf.pow x (Int64.of_int n) in
  let g_nm1 = Gf.pow g (Int64.of_int (n - 1)) in
  let g_nm2 = Gf.pow g (Int64.of_int (n - 2)) in
  let num_c = Gf.sub t_j8 (Gf.add t_j4 t_j) in
  let zfix = Gf.mul (Gf.sub x g_nm2) (Gf.sub x g_nm1) in
  let c = Gf.mul num_c (Gf.mul zfix (Gf.inv (Gf.sub xn Gf.one))) in
  let b0 = Gf.mul (Gf.sub t_j a0) (Gf.inv (Gf.sub x Gf.one)) in
  let b1 = Gf.mul (Gf.sub t_j a1) (Gf.inv (Gf.sub x g)) in
  let bl = Gf.mul (Gf.sub t_j last) (Gf.inv (Gf.sub x g_nm1)) in
  Gf.add
    (Gf.add (Gf.mul alphas.(0) c) (Gf.mul alphas.(1) b0))
    (Gf.add (Gf.mul alphas.(2) b1) (Gf.mul alphas.(3) bl))

let start_transcript ~n ~a0 ~a1 ~last root =
  let t = Transcript.create "mini-stark" in
  Transcript.absorb_int t "n" n;
  Transcript.absorb_gf t "boundary" [| a0; a1; last |];
  Transcript.absorb_digest t "trace" root;
  t

let query_indices ~domain ~n position =
  [| position; (position + 4) mod domain; (position + 8) mod domain;
     (position + (2 * n)) mod domain;
     (position + (2 * n) + 4) mod domain;
     (position + (2 * n) + 8) mod domain |]

let prove ~n ~a0 ~a1 =
  let t = trace_of ~n ~a0 ~a1 in
  let last = t.(n - 1) in
  let domain = 4 * n in
  let lde = trace_lde t in
  let tree = commit_trace lde in
  let transcript = start_transcript ~n ~a0 ~a1 ~last (Merkle.root tree) in
  let alphas = Transcript.challenge_gf_vec transcript "alphas" 4 in
  let w = Gf.root_of_unity (Fri.log2_exact domain) in
  let g = Gf.pow w 4L in
  (* Composition evaluations over the coset. *)
  let f = Fv.create domain in
  let x = ref shift in
  for j = 0 to domain - 1 do
    Fv.set f j
      (composition ~n ~a0 ~a1 ~last ~alphas ~g ~x:!x (Fv.get lde j)
         (Fv.get lde ((j + 4) mod domain))
         (Fv.get lde ((j + 8) mod domain)));
    x := Gf.mul !x w
  done;
  (* Back to coefficients (coset inverse NTT) and truncate to the degree
     bound n: honest compositions have degree < n. *)
  Ntt_fv.inverse (Ntt_fv.plan domain) f;
  let s_inv = Gf.inv shift in
  let si = ref Gf.one in
  let f_coeffs =
    Array.init n (fun i ->
        let c = Gf.mul (Fv.get f i) !si in
        si := Gf.mul !si s_inv;
        c)
  in
  let fri = Fri.prove ~shift params transcript f_coeffs in
  let openings =
    Array.map
      (fun position ->
        Array.map
          (fun idx -> (Fv.get lde idx, Merkle.path tree idx))
          (query_indices ~domain ~n position))
      fri.Fri.queries.Fri.positions
  in
  ({ trace_root = Merkle.root tree; fri; openings }, last)

let verify ~n ~a0 ~a1 ~claimed_last proof =
  let ( let* ) = Result.bind in
  let* () = if n >= 4 && n land (n - 1) = 0 then Ok () else Error "bad n" in
  let domain = 4 * n in
  let transcript = start_transcript ~n ~a0 ~a1 ~last:claimed_last proof.trace_root in
  let alphas = Transcript.challenge_gf_vec transcript "alphas" 4 in
  let* () =
    Result.map_error Zk_pcs.Verify_error.to_string
      (Fri.verify ~shift params transcript ~degree_bound:n proof.fri)
  in
  let queries = proof.fri.Fri.queries in
  let* () =
    if Array.length proof.openings = Array.length queries.Fri.positions then Ok ()
    else Error "opening count mismatch"
  in
  (* [Fri.verify] accepted, so every query opened all [layers] layers, and
     query [q]'s layer-0 pair is pair [q * layers]. *)
  let layers = Array.length proof.fri.Fri.layer_roots in
  let w = Gf.root_of_unity (Fri.log2_exact domain) in
  let g = Gf.pow w 4L in
  let rec check q_idx =
    if q_idx >= Array.length proof.openings then Ok ()
    else begin
      let position = queries.Fri.positions.(q_idx) in
      let opens = proof.openings.(q_idx) in
      let* () = if Array.length opens = 6 then Ok () else Error "need six openings" in
      let indices = query_indices ~domain ~n position in
      (* Authenticate every opened trace value. *)
      let rec auth i =
        if i >= 6 then Ok ()
        else begin
          let v, path = opens.(i) in
          match
            Merkle.check_path ~root:proof.trace_root ~index:indices.(i)
              ~leaf:(Merkle.leaf_of_column [| v |])
              ~path
          with
          | Ok () -> auth (i + 1)
          | Error reason ->
            Error (Printf.sprintf "query %d: bad trace opening %d: %s" q_idx i reason)
        end
      in
      let* () = auth 0 in
      (* Recompute the composition at the query pair and compare with the
         FRI layer-0 values: this ties the low-degree proof to the committed
         execution trace. *)
      let recompute base_idx v0 v4 v8 =
        let x = Gf.mul shift (Gf.pow w (Int64.of_int base_idx)) in
        composition ~n ~a0 ~a1 ~last:claimed_last ~alphas ~g ~x v0 v4 v8
      in
      let f_lo = recompute position (fst opens.(0)) (fst opens.(1)) (fst opens.(2)) in
      let f_hi =
        recompute ((position + (2 * n)) mod domain) (fst opens.(3)) (fst opens.(4))
          (fst opens.(5))
      in
      let k = 2 * q_idx * layers in
      let a = Fv.get queries.Fri.pairs k and b = Fv.get queries.Fri.pairs (k + 1) in
      if not (Gf.equal f_lo a) then
        Error (Printf.sprintf "query %d: composition mismatch (low)" q_idx)
      else if not (Gf.equal f_hi b) then
        Error (Printf.sprintf "query %d: composition mismatch (high)" q_idx)
      else check (q_idx + 1)
    end
  in
  check 0

let proof_size_bytes proof =
  let digest = 32 and field = 8 in
  digest
  + Fri.proof_size_bytes proof.fri
  + Array.fold_left
      (fun acc opens ->
        acc
        + Array.fold_left
            (fun acc (_, path) -> acc + field + (digest * List.length path))
            0 opens)
      0 proof.openings
