module Gf = Zk_field.Gf
module Merkle = Zk_merkle.Merkle
module Transcript = Zk_hash.Transcript
module Ntt_fv = Zk_ntt.Ntt.Gf_fv
module Fv = Nocap_vec.Fv
module Pool = Nocap_parallel.Pool
module Native = Nocap_native.Native

type params = { blowup_log2 : int; num_queries : int }

let default_params = { blowup_log2 = 2; num_queries = 30 }

type proof = {
  layer_roots : Merkle.digest array;
  final_constant : Gf.t;
  queries : query array;
}

and query = {
  position : int;
  layers : (Gf.t * Gf.t * Merkle.digest list) array;
}

let log2_exact n =
  if n <= 0 || n land (n - 1) <> 0 then invalid_arg "Fri: size must be a power of two";
  let rec go k m = if m = 1 then k else go (k + 1) (m lsr 1) in
  go 0 n

(* Merkle tree over an evaluation layer, co-locating f(x) and f(-x): leaf j
   commits to (E[j], E[j + half]), i.e. column j of the layer read as a
   2 x half row-major matrix — hashed straight out of the flat buffer and
   split across the pool. *)
let commit_layer evals =
  let half = Fv.length evals / 2 in
  Merkle.build (Merkle.leaves_of_matrix ~rows:2 ~cols:half evals)

let inv2 = Gf.inv Gf.two

(* One fold output from the pair (a, b) = (f(x), f(-x)):
   (a + b)/2 + beta * (a - b)/(2x), with [coef = beta / (2x)] supplied. *)
let[@inline] fold_pair ~coef a b = Gf.add (Gf.mul inv2 (Gf.add a b)) (Gf.mul coef (Gf.sub a b))

let fold_at ~x_inv beta a b = fold_pair ~coef:(Gf.mul beta (Gf.mul inv2 x_inv)) a b

let fold_block_ocaml ~coef ~w_inv ~lo ~hi ~dst =
  let coef = ref coef in
  for i = 0 to Fv.length dst - 1 do
    Fv.unsafe_set dst i (fold_pair ~coef:!coef (Fv.unsafe_get lo i) (Fv.unsafe_get hi i));
    coef := Gf.mul !coef w_inv
  done

(* Split across the pool: the chunk at [a] starts its running product at
   [coef0 * w_inv^a], the same field element the serial loop reaches, so
   the output is the same for every split. One element costs ~6 ns in the
   AVX2 kernel (~27 ns scalar C) and ~74 ns in the OCaml loop (2^16
   elements, one domain). *)
let fold_block ?pool ~x_inv ~w_inv ~lo ~hi ~dst beta =
  let n = Fv.length dst in
  if Fv.length lo <> n || Fv.length hi <> n then invalid_arg "Fri.fold_block: lengths";
  let coef0 = Gf.mul beta (Gf.mul inv2 x_inv) in
  let native = Native.on () in
  Pool.run ?pool ~grain:(Pool.grain_of_ns (if native then 6 else 74)) ~n (fun a b ->
      let coef = Gf.mul coef0 (Gf.pow w_inv (Int64.of_int a)) in
      let view v = Fv.sub_view v ~pos:a ~len:(b - a) in
      if native then Native.fri_fold (view dst) (view lo) (view hi) coef w_inv
      else fold_block_ocaml ~coef ~w_inv ~lo:(view lo) ~hi:(view hi) ~dst:(view dst))

let fold ~shift evals beta =
  let n = Fv.length evals in
  let half = n / 2 in
  let w_inv = Gf.inv (Gf.root_of_unity (log2_exact n)) in
  let dst = Fv.create half in
  fold_block ~x_inv:(Gf.inv shift) ~w_inv
    ~lo:(Fv.sub_view evals ~pos:0 ~len:half)
    ~hi:(Fv.sub_view evals ~pos:half ~len:half)
    ~dst beta;
  dst

let prove ?(shift = Gf.one) params transcript coeffs =
  let n = Array.length coeffs in
  let log_n = log2_exact n in
  let domain = n lsl params.blowup_log2 in
  Transcript.absorb_int transcript "fri/degree" n;
  Transcript.absorb_int transcript "fri/blowup" params.blowup_log2;
  (* Layer 0: evaluations over the (possibly coset-shifted) domain. Coset:
     scale coefficient i by shift^i before the NTT. *)
  let evals = Fv.create domain in
  Fv.zero evals;
  let si = ref Gf.one in
  for i = 0 to n - 1 do
    Fv.set evals i (Gf.mul coeffs.(i) !si);
    si := Gf.mul !si shift
  done;
  Ntt_fv.forward (Ntt_fv.plan domain) evals;
  (* Commit and fold log_n times. *)
  let layers = ref [ evals ] in
  let trees = ref [ commit_layer evals ] in
  Transcript.absorb_digest transcript "fri/root" (Merkle.root (List.hd !trees));
  let layer_shift = ref shift in
  for _ = 1 to log_n do
    let beta = Transcript.challenge_gf transcript "fri/beta" in
    let next = fold ~shift:!layer_shift (List.hd !layers) beta in
    layer_shift := Gf.square !layer_shift;
    layers := next :: !layers;
    let tree = commit_layer next in
    trees := tree :: !trees;
    Transcript.absorb_digest transcript "fri/root" (Merkle.root tree)
  done;
  let layers = Array.of_list (List.rev !layers) in
  let trees = Array.of_list (List.rev !trees) in
  (* The last layer must be constant (degree < 1 after log_n folds). *)
  let final_constant = Fv.get layers.(Array.length layers - 1) 0 in
  Transcript.absorb_gf transcript "fri/final" [| final_constant |];
  (* Queries. *)
  let positions =
    Transcript.challenge_indices transcript "fri/queries" ~bound:(domain / 2)
      ~count:params.num_queries
  in
  let queries =
    Array.map
      (fun position ->
        let opened =
          Array.mapi
            (fun i layer ->
              let half = Fv.length layer / 2 in
              let pos = position mod half in
              (Fv.get layer pos, Fv.get layer (pos + half), Merkle.path trees.(i) pos))
            layers
        in
        { position; layers = opened })
      positions
  in
  {
    layer_roots = Array.map Merkle.root trees;
    final_constant;
    queries;
  }

let verify ?(shift = Gf.one) params transcript ~degree_bound proof =
  let ( let* ) = Result.bind in
  let log_n = log2_exact degree_bound in
  let domain = degree_bound lsl params.blowup_log2 in
  let* () =
    if Array.length proof.layer_roots = log_n + 1 then Ok ()
    else Error "wrong number of layers"
  in
  Transcript.absorb_int transcript "fri/degree" degree_bound;
  Transcript.absorb_int transcript "fri/blowup" params.blowup_log2;
  Transcript.absorb_digest transcript "fri/root" proof.layer_roots.(0);
  let betas = Array.make log_n Gf.zero in
  for i = 0 to log_n - 1 do
    betas.(i) <- Transcript.challenge_gf transcript "fri/beta";
    Transcript.absorb_digest transcript "fri/root" proof.layer_roots.(i + 1)
  done;
  Transcript.absorb_gf transcript "fri/final" [| proof.final_constant |];
  let positions =
    Transcript.challenge_indices transcript "fri/queries" ~bound:(domain / 2)
      ~count:params.num_queries
  in
  let* () =
    if Array.length proof.queries = params.num_queries then Ok ()
    else Error "wrong number of queries"
  in
  (* Per-layer inverse twiddle bases: layer i has size domain / 2^i, over
     the coset shift^(2^i) <w_i>; its fold at leaf j divides by
     shift^(2^i) * w_i^j. *)
  let log_domain = log2_exact domain in
  let w_invs = Array.init log_n (fun i -> Gf.inv (Gf.root_of_unity (log_domain - i))) in
  let shift_invs = Array.make log_n (Gf.inv shift) in
  for i = 1 to log_n - 1 do
    shift_invs.(i) <- Gf.square shift_invs.(i - 1)
  done;
  let rec check_query q_idx =
    if q_idx >= Array.length proof.queries then Ok ()
    else begin
      let q = proof.queries.(q_idx) in
      if q.position <> positions.(q_idx) then Error "query position mismatch"
      else if Array.length q.layers <> log_n + 1 then Error "query layer count"
      else begin
        (* Walk the folding chain: at layer i the walked index j lives in
           [0, layer_size); the co-located leaf is j mod half, and j selects
           the low (a) or high (b) element of the opened pair. *)
        let rec walk i layer_size j expected =
          let half = layer_size / 2 in
          let leaf_pos = j mod half in
          let a, b, path = q.layers.(i) in
          let leaf = Merkle.leaf_of_column [| a; b |] in
          match Merkle.check_path ~root:proof.layer_roots.(i) ~index:leaf_pos ~leaf ~path with
          | Error reason -> Error (Printf.sprintf "query %d layer %d: bad path: %s" q_idx i reason)
          | Ok () ->
            let value_at_j = if j >= half then b else a in
            let consistent =
              match expected with
              | None -> true
              | Some v -> Gf.equal v value_at_j
            in
            if not consistent then
              Error (Printf.sprintf "query %d layer %d: fold mismatch" q_idx i)
            else if i = log_n then
              if Gf.equal a proof.final_constant && Gf.equal b proof.final_constant
              then Ok ()
              else Error (Printf.sprintf "query %d: final layer not constant" q_idx)
            else begin
              let x_inv = Gf.mul shift_invs.(i) (Gf.pow w_invs.(i) (Int64.of_int leaf_pos)) in
              walk (i + 1) half leaf_pos (Some (fold_at ~x_inv betas.(i) a b))
            end
        in
        match walk 0 domain q.position None with
        | Error e -> Error e
        | Ok () -> check_query (q_idx + 1)
      end
    end
  in
  check_query 0

let proof_size_bytes proof =
  let digest = 32 and field = 8 in
  (digest * Array.length proof.layer_roots)
  + field
  + Array.fold_left
      (fun acc q ->
        acc + 8
        + Array.fold_left
            (fun acc (_, _, path) -> acc + (2 * field) + (digest * List.length path))
            0 q.layers)
      0 proof.queries
