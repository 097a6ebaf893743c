module Gf = Zk_field.Gf
module Merkle = Zk_merkle.Merkle
module Keccak = Zk_hash.Keccak
module Transcript = Zk_hash.Transcript
module Ntt_fv = Zk_ntt.Ntt.Gf_fv
module Fv = Nocap_vec.Fv
module Spill = Nocap_vec.Spill
module Pool = Nocap_parallel.Pool
module Native = Nocap_native.Native
module E = Zk_pcs.Verify_error

type params = { blowup_log2 : int; num_queries : int }

let default_params = { blowup_log2 = 2; num_queries = 30 }

type queries = {
  positions : int array; (* per query: its layer-0 position *)
  layer_count : int array; (* per query: opened layers *)
  pairs : Fv.t; (* per opened layer: the even, then the odd value *)
  path_len : int array; (* per opened layer: its path's digest count *)
  paths : Fv.t; (* every path, bottom-up, 4 lanes per digest *)
}

type proof = {
  layer_roots : Merkle.digest array;
  final_constant : Gf.t;
  queries : queries;
}

let log2_exact n =
  if n <= 0 || n land (n - 1) <> 0 then invalid_arg "Fri: size must be a power of two";
  let rec go k m = if m = 1 then k else go (k + 1) (m lsr 1) in
  go 0 n

(* The per-query and per-layer arrays agree with each other and with the
   buffers, and every root is a digest. A decoder only ever builds such
   records; a hand-built one may not. *)
let well_formed ~roots q =
  let layers = Runs.sum q.layer_count in
  Array.length q.layer_count = Array.length q.positions
  && Array.for_all (fun c -> c >= 0) q.layer_count
  && Array.length q.path_len = layers
  && Fv.length q.pairs = 2 * layers
  && Array.for_all (fun n -> n >= 0) q.path_len
  && Fv.length q.paths = 4 * Runs.sum q.path_len
  && Array.for_all (fun d -> String.length d = 32) roots

let inv2 = Gf.inv Gf.two

(* One fold output from the pair (a, b) = (f(x), f(-x)):
   (a + b)/2 + beta * (a - b)/(2x). *)
let fold_at ~x_inv beta a b =
  let coef = Gf.mul beta (Gf.mul inv2 x_inv) in
  Gf.add (Gf.mul inv2 (Gf.add a b)) (Gf.mul coef (Gf.sub a b))

(* Split across the pool: the chunk at [a] starts its running product at
   [coef0 * w_inv^a], the same field element the serial loop reaches, so
   the output is the same for every split. One element costs ~6 ns in the
   AVX2 kernel (~27 ns scalar C; 2^16 elements, one domain). *)
let fold_block ~x_inv ~w_inv ~lo ~hi ~dst beta =
  let n = Fv.length dst in
  if Fv.length lo <> n || Fv.length hi <> n then invalid_arg "Fri.fold_block: lengths";
  let coef0 = Gf.mul beta (Gf.mul inv2 x_inv) in
  Pool.run ~grain:(Pool.grain_of_ns 6) ~n (fun a b ->
      let coef = Gf.mul coef0 (Gf.pow w_inv (Int64.of_int a)) in
      let view v = Fv.sub_view v ~pos:a ~len:(b - a) in
      Native.fri_fold (view dst) (view lo) (view hi) coef w_inv)

(* A RAM-backed layer is its own 2 x half leaf matrix; a spilled one is
   read a block of leaves at a time into a 2 x block matrix for the
   builder: each block's two halves are read straight into that matrix's
   rows, the layout the column hasher wants. A leaf stages its pair and
   its digest. *)
let commit_layer ~budget layer =
  let half = Spill.length layer / 2 in
  if not (Spill.is_spilled layer) then
    Merkle.build (Merkle.leaves_of_matrix ~rows:2 ~cols:half (Spill.as_fv layer))
  else begin
    let builder = Merkle.Builder.create half in
    let blk = Spill.block_rows ~budget ~row_bytes:(8 * (2 + 4)) half in
    let pair = Fv.create (2 * blk) and leaves = Fv.create (4 * blk) in
    Spill.walk ~rows:half ~block:blk (fun ~pos:j ~len:bl _ _ ->
        Spill.read layer ~pos:j (Fv.sub_view pair ~pos:0 ~len:bl);
        Spill.read layer ~pos:(j + half) (Fv.sub_view pair ~pos:bl ~len:bl);
        let dst = Fv.sub_view leaves ~pos:0 ~len:(4 * bl) in
        Keccak.hash_cols_into ~rows:2 ~cols:bl (Fv.sub_view pair ~pos:0 ~len:(2 * bl)) ~dst;
        Merkle.Builder.add builder dst);
    Merkle.Builder.finish builder
  end

(* A block at [j] starts its running product at [shift^-1 * w^-j], the
   element a single block reaches. A row stages its pair and its output. *)
let fold_layer ~shift ~budget layer beta ~dst =
  let half = Spill.length layer / 2 in
  if half < 2 || Spill.length dst <> half then invalid_arg "Fri.fold_layer: lengths";
  let w_inv = Gf.inv (Gf.root_of_unity (log2_exact (Spill.length layer))) in
  let shift_inv = Gf.inv shift in
  Spill.walk ~rows:half ~block:(Spill.block_rows ~budget ~row_bytes:(8 * 3) half)
    ~read:[ (layer, 0, 1); (layer, half, 1) ]
    ~write:[ (dst, 0, 1) ]
    (fun ~pos:j ~len:_ srcs dsts ->
      let x_inv = Gf.mul shift_inv (Gf.pow w_inv (Int64.of_int j)) in
      fold_block ~x_inv ~w_inv ~lo:srcs.(0) ~hi:srcs.(1) ~dst:dsts.(0) beta);
  commit_layer ~budget dst

let coset_lde ~shift ~domain coeffs =
  let evals = Fv.create domain in
  Fv.zero evals;
  let si = ref Gf.one in
  for i = 0 to Fv.length coeffs - 1 do
    Fv.set evals i (Gf.mul (Fv.get coeffs i) !si);
    si := Gf.mul !si shift
  done;
  Ntt_fv.forward (Ntt_fv.plan domain) evals;
  evals

(* Query [q] opens a pair and its path in every layer: pair [k = q *
   layers + i] at [2k], paths back to back. One query costs ~2µs a
   layer. *)
let open_queries layers trees positions =
  let nq = Array.length positions and nl = Array.length layers in
  let depths = Array.map Merkle.depth trees in
  let per_query = Runs.sum depths in
  let pairs = Fv.create (2 * nq * nl) and paths = Fv.create (4 * nq * per_query) in
  Pool.run ~grain:(Pool.grain_of_ns (max 1 (nl * 2_000))) ~n:nq (fun lo hi ->
      for q = lo to hi - 1 do
        let lane = ref (4 * q * per_query) in
        Array.iteri
          (fun i layer ->
            let half = Spill.length layer / 2 in
            let pos = positions.(q) mod half in
            let k = (q * nl) + i in
            Fv.set pairs (2 * k) (Spill.get layer pos);
            Fv.set pairs ((2 * k) + 1) (Spill.get layer (pos + half));
            Merkle.path_into trees.(i) pos paths ~pos:!lane;
            lane := !lane + (4 * depths.(i)))
          layers
      done);
  {
    positions;
    layer_count = Array.make nq nl;
    pairs;
    path_len = Array.init (nq * nl) (fun k -> depths.(k mod nl));
    paths;
  }

(* What decides one query, in the order the checks run. *)
type query_verdict =
  | Query_ok
  | Bad_position
  | Bad_layer_count
  | Bad_path of int * string
  | Bad_fold of int
  | Not_constant

let query_error q = function
  | Query_ok -> Ok ()
  | Bad_position -> E.errorf E.Consistency "query %d: position mismatch" q
  | Bad_layer_count -> E.errorf E.Shape "query %d: layer count" q
  | Bad_path (i, reason) -> E.errorf E.Merkle_mismatch "query %d layer %d: %s" q i reason
  | Bad_fold i -> E.errorf E.Consistency "query %d layer %d: fold mismatch" q i
  | Not_constant -> E.errorf E.Consistency "query %d: final layer not constant" q

(* Every query in one batch, in stages: the record's shape; positions and
   layer counts; the opened pairs of the well-shaped queries as the
   columns of one [2 x (layers * ns)] matrix, hashed into leaves in one
   {!Keccak.hash_cols_into}; per layer, every path of the honest length
   walked together ({!Merkle.check_paths}); then each query's fold chain
   and final constant. Layer [i] has [2^(domain_log2 - i)] points and its
   tree [2^(domain_log2 - i - 1)] leaves, so every honest path there is
   [domain_log2 - i - 1] long; a path of another length is never walked
   and fails as "wrong path length". The verdict is the first failing
   query, with its first failing (layer, check) in the order a one query,
   one layer at a time walk meets them. *)
let check_queries ~shift ~roots ~domain_log2 ~challenges ~positions ~final_constant proof =
  let nq = Array.length positions in
  if Array.length proof.positions <> nq then E.error E.Shape "wrong number of queries"
  else if not (well_formed ~roots proof) then
    E.error E.Shape "query openings do not match their buffers"
  else begin
    let layers = Array.length roots in
    let first = Runs.offsets proof.layer_count and path_pos = Runs.offsets proof.path_len in
    let verdict =
      Array.init nq (fun q ->
          if proof.positions.(q) <> positions.(q) then Bad_position
          else if proof.layer_count.(q) <> layers then Bad_layer_count
          else Query_ok)
    in
    let shaped = Runs.select nq (fun q -> verdict.(q) = Query_ok) in
    let ns = Array.length shaped in
    (* Pair (query shaped.(w), layer i) is column [i * ns + w]. *)
    let cols = layers * ns in
    let mat = Fv.create (2 * cols) in
    Array.iteri
      (fun w q ->
        for i = 0 to layers - 1 do
          let c = (i * ns) + w and k = 2 * (first.(q) + i) in
          Fv.unsafe_set mat c (Fv.unsafe_get proof.pairs k);
          Fv.unsafe_set mat (cols + c) (Fv.unsafe_get proof.pairs (k + 1))
        done)
      shaped;
    let leaves = Fv.create (4 * cols) in
    if cols > 0 then Keccak.hash_cols_into ~rows:2 ~cols mat ~dst:leaves;
    let bad_path = Array.make cols None in
    for i = 0 to layers - 1 do
      let depth = domain_log2 - i - 1 in
      let leaf_pos w = positions.(shaped.(w)) land ((1 lsl depth) - 1) in
      let full = Runs.select ns (fun w -> proof.path_len.(first.(shaped.(w)) + i) = depth) in
      let full_leaves = Fv.create (4 * Array.length full) in
      Array.iteri
        (fun b w ->
          Fv.blit ~src:leaves ~src_pos:(4 * ((i * ns) + w)) ~dst:full_leaves ~dst_pos:(4 * b)
            ~len:4)
        full;
      let on_root =
        Merkle.check_paths ~root:roots.(i) ~depth ~index:(Array.map leaf_pos full)
          ~leaves:full_leaves ~paths:proof.paths
          ~path_pos:(Array.map (fun w -> 4 * path_pos.(first.(shaped.(w)) + i)) full)
      in
      Array.iteri
        (fun b w -> if not on_root.(b) then bad_path.((i * ns) + w) <- Some "root mismatch")
        full;
      Array.iteri
        (fun w q ->
          if proof.path_len.(first.(q) + i) <> depth then
            bad_path.((i * ns) + w) <- Some "wrong path length")
        shaped
    done;
    (* The fold chain of one query: the value at position [j] of layer
       [i + 1] is the fold of layer [i]'s pair at [j]. Layer [i] lies on
       the coset [shift^(2^i) <w_i>], so its leaf [j] divides by
       [shift^(2^i) * w_i^j]; on the plain subgroup the shift factor is
       one and is skipped. *)
    let w_invs = Array.init (layers - 1) (fun i -> Gf.inv (Gf.root_of_unity (domain_log2 - i))) in
    let plain = Gf.equal shift Gf.one in
    let shift_invs = Array.make (layers - 1) (Gf.inv shift) in
    for i = 1 to layers - 2 do
      shift_invs.(i) <- Gf.square shift_invs.(i - 1)
    done;
    let fold_chain w q =
      let rec walk i j expected =
        match bad_path.((i * ns) + w) with
        | Some reason -> Bad_path (i, reason)
        | None ->
          let half = 1 lsl (domain_log2 - i - 1) in
          let k = 2 * (first.(q) + i) in
          let a = Fv.get proof.pairs k and b = Fv.get proof.pairs (k + 1) in
          let leaf_pos = j land (half - 1) in
          if i > 0 && not (Gf.equal expected (if j >= half then b else a)) then Bad_fold i
          else if i = layers - 1 then
            if Gf.equal a final_constant && Gf.equal b final_constant then Query_ok
            else Not_constant
          else begin
            let x_inv = Gf.pow w_invs.(i) (Int64.of_int leaf_pos) in
            let x_inv = if plain then x_inv else Gf.mul shift_invs.(i) x_inv in
            walk (i + 1) leaf_pos (fold_at ~x_inv challenges.(i) a b)
          end
      in
      walk 0 positions.(q) Gf.zero
    in
    Array.iteri (fun w q -> verdict.(q) <- fold_chain w q) shaped;
    let rec scan q =
      if q = nq then Ok ()
      else if verdict.(q) = Query_ok then scan (q + 1)
      else query_error q verdict.(q)
    in
    scan 0
  end

let prove ?(shift = Gf.one) params transcript coeffs =
  let n = Array.length coeffs in
  let log_n = log2_exact n in
  let domain = n lsl params.blowup_log2 in
  Transcript.absorb_int transcript "fri/degree" n;
  Transcript.absorb_int transcript "fri/blowup" params.blowup_log2;
  (* Layer 0: evaluations over the (possibly coset-shifted) domain. *)
  let evals = coset_lde ~shift ~domain (Fv.of_array coeffs) in
  (* Commit, then fold and commit log_n times; layer [i] lies on the coset
     [shift^(2^i) <w_i>]. Every layer is one block in RAM. *)
  let layers = Array.make (log_n + 1) (Spill.of_fv evals) in
  let trees = Array.make (log_n + 1) (commit_layer ~budget:None layers.(0)) in
  Transcript.absorb_digest transcript "fri/root" (Merkle.root trees.(0));
  let layer_shift = ref shift in
  for i = 1 to log_n do
    let beta = Transcript.challenge_gf transcript "fri/beta" in
    layers.(i) <- Spill.of_fv (Fv.create (domain lsr i));
    trees.(i) <-
      fold_layer ~shift:!layer_shift ~budget:None layers.(i - 1) beta ~dst:layers.(i);
    layer_shift := Gf.square !layer_shift;
    Transcript.absorb_digest transcript "fri/root" (Merkle.root trees.(i))
  done;
  (* The last layer must be constant (degree < 1 after log_n folds). *)
  let final_constant = Spill.get layers.(log_n) 0 in
  Transcript.absorb_gf transcript "fri/final" [| final_constant |];
  let positions =
    Transcript.challenge_indices transcript "fri/queries" ~bound:(domain / 2)
      ~count:params.num_queries
  in
  {
    layer_roots = Array.map Merkle.root trees;
    final_constant;
    queries = open_queries layers trees positions;
  }

let verify ?(shift = Gf.one) params transcript ~degree_bound proof =
  let log_n = log2_exact degree_bound in
  if Array.length proof.layer_roots <> log_n + 1 then E.error E.Shape "wrong number of layers"
  else begin
    Transcript.absorb_int transcript "fri/degree" degree_bound;
    Transcript.absorb_int transcript "fri/blowup" params.blowup_log2;
    Transcript.absorb_digest transcript "fri/root" proof.layer_roots.(0);
    let betas = Array.make log_n Gf.zero in
    for i = 0 to log_n - 1 do
      betas.(i) <- Transcript.challenge_gf transcript "fri/beta";
      Transcript.absorb_digest transcript "fri/root" proof.layer_roots.(i + 1)
    done;
    Transcript.absorb_gf transcript "fri/final" [| proof.final_constant |];
    let domain_log2 = log_n + params.blowup_log2 in
    let positions =
      Transcript.challenge_indices transcript "fri/queries" ~bound:(1 lsl (domain_log2 - 1))
        ~count:params.num_queries
    in
    check_queries ~shift ~roots:proof.layer_roots ~domain_log2 ~challenges:betas ~positions
      ~final_constant:proof.final_constant proof.queries
  end

(* A root per layer and the constant; a position per query, two elements
   and a path per opened layer. *)
let proof_size_bytes { layer_roots; queries = q; _ } =
  (32 * Array.length layer_roots) + 8
  + (8 * Array.length q.positions) + (8 * Fv.length q.pairs) + (8 * Fv.length q.paths)
