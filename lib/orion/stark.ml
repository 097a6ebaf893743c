module Gf = Zk_field.Gf
module Ntt_fv = Zk_ntt.Ntt.Gf_fv
module Merkle = Zk_merkle.Merkle
module Keccak = Zk_hash.Keccak
module Transcript = Zk_hash.Transcript
module Fv = Nocap_vec.Fv

type openings = {
  values : Fv.t; (* per FRI query, six trace-LDE values *)
  paths : Fv.t; (* per value, its path: 4 lanes per digest *)
}

type proof = { trace_root : Merkle.digest; fri : Fri.proof; openings : openings }

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
  let coeffs = Fv.of_array t in
  Ntt_fv.inverse (Ntt_fv.plan (Array.length t)) coeffs;
  Fri.coset_lde ~shift ~domain:(4 * Array.length t) coeffs

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

(* The six LDE positions query [position] opens, for every query in turn:
   the transition's three rows at the query's pair, low then high. *)
let opened_indices ~domain ~n positions =
  Array.init
    (6 * Array.length positions)
    (fun k ->
      let lo = if k mod 6 < 3 then 0 else 2 * n in
      (positions.(k / 6) + lo + (4 * (k mod 3))) mod domain)

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
  let indices = opened_indices ~domain ~n fri.Fri.queries.Fri.positions in
  let depth = Merkle.depth tree in
  let values = Fv.create (Array.length indices) in
  let paths = Fv.create (4 * depth * Array.length indices) in
  Array.iteri
    (fun k idx ->
      Fv.set values k (Fv.get lde idx);
      Merkle.path_into tree idx paths ~pos:(4 * depth * k))
    indices;
  ({ trace_root = Merkle.root tree; fri; openings = { values; paths } }, last)

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
  let nq = Array.length queries.Fri.positions in
  let { values; paths } = proof.openings in
  let nv = Fv.length values in
  (* Opening [k = 6q + i] is value [k] and the [depth] digests from lane
     [4 * depth * k]. Buffers that stop before query [nq - 1] or run past
     it hold the wrong number of openings. *)
  let depth = Fri.log2_exact domain (* one trace leaf per LDE point *) in
  let path_lanes = 4 * depth in
  let queries_in len per = (len + per - 1) / per in
  let* () =
    if queries_in nv 6 = nq && queries_in (Fv.length paths) (6 * path_lanes) = nq then Ok ()
    else Error "opening count mismatch"
  in
  (* [Fri.verify] accepted, so every query opened all [layers] layers, and
     query [q]'s layer-0 pair is pair [q * layers]. *)
  let layers = Array.length proof.fri.Fri.layer_roots in
  let w = Gf.root_of_unity depth in
  let g = Gf.pow w 4L in
  (* Every value with a whole path, authenticated at once; no path reaches
     a root that is not a digest. *)
  let indices = opened_indices ~domain ~n queries.Fri.positions in
  let full = min nv (Fv.length paths / path_lanes) in
  let leaves = Fv.create (4 * nv) in
  if nv > 0 then Keccak.hash_cols_into ~rows:1 ~cols:nv values ~dst:leaves;
  let on_root =
    if String.length proof.trace_root <> 32 then Array.make full false
    else
      Merkle.check_paths ~root:proof.trace_root ~depth ~index:(Array.sub indices 0 full)
        ~leaves:(Fv.sub_view leaves ~pos:0 ~len:(4 * full))
        ~paths ~path_pos:(Array.init full (fun k -> path_lanes * k))
  in
  let rec check q =
    if q >= nq then Ok ()
    else begin
      let* () = if (6 * q) + 6 <= nv then Ok () else Error "need six openings" in
      let rec auth i =
        let k = (6 * q) + i in
        if i >= 6 then Ok ()
        else if k >= full then
          Error (Printf.sprintf "query %d: bad trace opening %d: wrong path length" q i)
        else if not on_root.(k) then
          Error (Printf.sprintf "query %d: bad trace opening %d: root mismatch" q i)
        else auth (i + 1)
      in
      let* () = auth 0 in
      (* Recompute the composition at the query pair and compare with the
         FRI layer-0 values: this ties the low-degree proof to the committed
         execution trace. *)
      let recompute i =
        let v j = Fv.get values ((6 * q) + i + j) in
        let x = Gf.mul shift (Gf.pow w (Int64.of_int indices.((6 * q) + i))) in
        composition ~n ~a0 ~a1 ~last:claimed_last ~alphas ~g ~x (v 0) (v 1) (v 2)
      in
      let f_lo = recompute 0 and f_hi = recompute 3 in
      let k = 2 * q * layers in
      let a = Fv.get queries.Fri.pairs k and b = Fv.get queries.Fri.pairs (k + 1) in
      if not (Gf.equal f_lo a) then
        Error (Printf.sprintf "query %d: composition mismatch (low)" q)
      else if not (Gf.equal f_hi b) then
        Error (Printf.sprintf "query %d: composition mismatch (high)" q)
      else check (q + 1)
    end
  in
  check 0

(* A root, the FRI proof, then a value and a path per opening. *)
let proof_size_bytes proof =
  32 + Fri.proof_size_bytes proof.fri
  + (8 * Fv.length proof.openings.values) + (8 * Fv.length proof.openings.paths)
