module Gf = Zk_field.Gf
module Mle = Zk_poly.Mle
module Dense = Zk_poly.Dense
module Merkle = Zk_merkle.Merkle
module Keccak = Zk_hash.Keccak
module Transcript = Zk_hash.Transcript
module Ntt_fv = Zk_ntt.Ntt.Gf_fv
module Pool = Nocap_parallel.Pool
module Codec = Zk_pcs.Codec
module Fv = Nocap_vec.Fv
module Spill = Nocap_vec.Spill
module Sumcheck = Zk_sumcheck.Sumcheck

let name = "fri"
let tag = '\002'

type params = { blowup_log2 : int; num_queries : int }

let default_params = { blowup_log2 = 2; num_queries = 30 }
let test_params = { blowup_log2 = 2; num_queries = 12 }

type param_error = Blowup_out_of_range of int | Queries_not_positive of int

let validate_params p =
  if p.blowup_log2 < 1 || p.blowup_log2 > 8 then Error (Blowup_out_of_range p.blowup_log2)
  else if p.num_queries < 1 then Error (Queries_not_positive p.num_queries)
  else Ok ()

let param_error_to_string = function
  | Blowup_out_of_range b -> Printf.sprintf "blowup_log2 %d outside [1, 8]" b
  | Queries_not_positive q -> Printf.sprintf "num_queries must be >= 1, got %d" q

type commitment = { root : Merkle.digest; num_vars : int }

(* Prover-side opening state: the table and the layer-0 codeword. With no
   budget both wrap RAM vectors and the opening runs each layer as one
   block; under a budget (engine stream budget) both live in spill files
   and the opening runs the sumcheck/fold pyramid out of core, touching
   one budget-sized block at a time. The codeword pyramid — sum over
   layers of 2^i — is the dominant object of an opening, and it is what a
   budget moves to disk; the per-layer Merkle trees stay resident
   (openings need sibling paths), as does the NTT of the commit (flat,
   8 bytes/element) — a documented limit of this backend's out-of-core
   support. *)
type committed = {
  c_commitment : commitment;
  table : Spill.t; (* multilinear evaluations, length 2^num_vars *)
  evals : Spill.t; (* layer-0 codeword, size 2^num_vars * blowup *)
  budget : int option;
  tree : Merkle.tree;
}

(* The spot checks are flat, as Orion's column openings are: query [q]
   opens [layer_count.(q)] layers, and its layers' entries follow each
   other in the per-layer arrays and buffers, query after query. *)
type eval_proof = {
  round_polys : Gf.t array array; (* one degree-2 polynomial (3 evals) per variable *)
  layer_roots : Merkle.digest array; (* roots of the folded layers 1..num_vars *)
  final_constant : Gf.t;
  positions : int array; (* per query: its layer-0 position *)
  layer_count : int array; (* per query: opened layers *)
  pairs : Fv.t; (* per opened layer: the even, then the odd value *)
  path_len : int array; (* per opened layer: its path's digest count *)
  paths : Fv.t; (* every path, bottom-up, 4 lanes per digest *)
}

let num_queries p = Array.length p.positions

(* Start of each run in a buffer of concatenated runs. *)
let offsets lens =
  let pos = Array.make (Array.length lens) 0 in
  for k = 1 to Array.length lens - 1 do
    pos.(k) <- pos.(k - 1) + lens.(k - 1)
  done;
  pos

let sum = Array.fold_left ( + ) 0

(* The per-query and per-layer arrays agree with each other and with the
   buffers, and every root is a digest. The decoder only ever builds such
   records; a hand-built one may not. *)
let well_formed p =
  let layers = sum p.layer_count in
  Array.length p.layer_count = num_queries p
  && Array.for_all (fun c -> c >= 0) p.layer_count
  && Array.length p.path_len = layers
  && Fv.length p.pairs = 2 * layers
  && Array.for_all (fun n -> n >= 0) p.path_len
  && Fv.length p.paths = 4 * sum p.path_len
  && Array.for_all (fun d -> String.length d = 32) p.layer_roots

let log2_exact n =
  if n <= 0 || n land (n - 1) <> 0 then invalid_arg "Fri_pcs: size must be a power of two";
  let rec go k m = if m = 1 then k else go (k + 1) (m lsr 1) in
  go 0 n

(* Hypercube evaluations -> univariate coefficients, arranged so that
   monomial bit [j - 1] carries variable [j] (the j-th variable the
   sumcheck binds; variable 1 is the MSB of the evaluation index). With
   that arrangement {!Fri.fold}'s coefficient action
   [c'_i = c_{2i} + r * c_{2i+1}] is exactly "substitute the round
   challenge for the variable the sumcheck just bound", so one challenge
   drives both the sumcheck tables and the codeword. *)
let monomial_coeffs_into table (dst : Fv.t) =
  let n = Array.length table in
  let l = log2_exact n in
  if Fv.length dst < n then invalid_arg "Fri_pcs.monomial_coeffs_into: destination too short";
  Fv.write_array table ~src_pos:0 dst ~dst_pos:0 ~len:n;
  (* Evaluations to multilinear monomial coefficients in place, one
     variable (index bit) at a time: (f(0), f(1)) |-> (f(0), f(1) - f(0)). *)
  let stride = ref 1 in
  while !stride < n do
    let s = !stride in
    let block = 2 * s in
    let i = ref 0 in
    while !i < n do
      for j = !i to !i + s - 1 do
        Fv.unsafe_set dst (j + s) (Gf.sub (Fv.unsafe_get dst (j + s)) (Fv.unsafe_get dst j))
      done;
      i := !i + block
    done;
    stride := block
  done;
  (* Bit-reverse in place: variable j lives at evaluation-index bit
     (l - j), and must land at monomial bit (j - 1). *)
  for m = 0 to n - 1 do
    let r = ref 0 in
    for k = 0 to l - 1 do
      r := !r lor (((m lsr k) land 1) lsl (l - 1 - k))
    done;
    let r = !r in
    if m < r then begin
      let x = Fv.unsafe_get dst m in
      Fv.unsafe_set dst m (Fv.unsafe_get dst r);
      Fv.unsafe_set dst r x
    end
  done

(* Chunked {!Fri.commit_layer} over a spillable codeword, fed through the
   incremental Merkle builder: leaf j pairs positions j and j + half. Each
   block reads its [bl] low and [bl] high elements as the two rows of a
   flat [2 x bl] matrix, whose columns are the block's leaves. Same leaf
   bytes, same tree. *)
let commit_layer_spill ev ~block =
  let n = Spill.length ev in
  let half = n / 2 in
  let builder = Merkle.Builder.create half in
  let blk = min block half in
  let pair = Fv.create (2 * blk) in
  let j = ref 0 in
  while !j < half do
    Pool.Cancel.check ();
    let bl = min blk (half - !j) in
    Spill.read ev ~pos:!j (Fv.sub_view pair ~pos:0 ~len:bl);
    Spill.read ev ~pos:(!j + half) (Fv.sub_view pair ~pos:bl ~len:bl);
    Merkle.Builder.add builder
      (Merkle.leaves_of_matrix ~rows:2 ~cols:bl (Fv.sub_view pair ~pos:0 ~len:(2 * bl)));
    j := !j + bl
  done;
  Merkle.Builder.finish builder

let block_of_budget budget =
  (* Six block-sized staging vectors live at once in the opening loop
     (lo/hi per table plus output); keep them inside half the budget. *)
  max 1024 (budget / 2 / (8 * 6))

let commit ?engine params rng table =
  (match validate_params params with
  | Ok () -> ()
  | Error e -> invalid_arg ("Fri_pcs.commit: " ^ param_error_to_string e));
  ignore (rng : Zk_util.Rng.t); (* non-hiding backend: no masks to draw *)
  let n = Array.length table in
  let num_vars = log2_exact n in
  let domain = n lsl params.blowup_log2 in
  (* Layer-0 codeword: the flat NTT of the zero-padded coefficients. *)
  let evals = Fv.create domain in
  Fv.zero evals;
  monomial_coeffs_into table evals;
  Ntt_fv.forward (Ntt_fv.plan domain) evals;
  let tree = Fri.commit_layer evals in
  let c_commitment = { root = Merkle.root tree; num_vars } in
  let budget = Option.bind engine Zk_pcs.Engine.stream_budget_bytes in
  match budget with
  | None ->
    ( { c_commitment; table = Spill.of_fv (Fv.of_array table); evals = Spill.of_fv evals;
        budget; tree },
      c_commitment )
  | Some b ->
    (* The NTT itself ran in RAM — O(domain) resident at 8 bytes/element
       (documented limit); the win is downstream: the codeword and table
       spill, and the opening's fold pyramid never materializes. *)
    let block = block_of_budget b in
    (* One block loop stages both spills: the codeword straight from its
       flat vector, the table through a block-sized buffer. Free the
       partially-built spills on cancellation / injected I/O faults instead
       of waiting for the GC backstop. *)
    let created = ref [] in
    let create tag len =
      let s = Spill.create ~tag ~spill:true len in
      created := s :: !created;
      s
    in
    (try
       let s_evals = create "fri-evals" domain in
       let s_table = create "fri-table" n in
       let buf = Fv.create (min block n) in
       let pos = ref 0 in
       while !pos < domain do
         Pool.Cancel.check ();
         let len = min block (domain - !pos) in
         Spill.write s_evals ~pos:!pos (Fv.sub_view evals ~pos:!pos ~len);
         if !pos < n then begin
           let v = Fv.sub_view buf ~pos:0 ~len:(min len (n - !pos)) in
           Fv.write_array table ~src_pos:!pos v ~dst_pos:0 ~len:(Fv.length v);
           Spill.write s_table ~pos:!pos v
         end;
         pos := !pos + len
       done;
       ({ c_commitment; table = s_table; evals = s_evals; budget; tree }, c_commitment)
     with e ->
       List.iter Spill.free !created;
       raise e)

let free_committed c =
  Spill.free c.table;
  Spill.free c.evals

let absorb_commitment transcript (cm : commitment) =
  Transcript.absorb_digest transcript "fripcs/root" cm.root;
  Transcript.absorb_int transcript "fripcs/num_vars" cm.num_vars

let commitment_num_vars (cm : commitment) = cm.num_vars

(* The round polynomial's combiner: A * E. *)
let product v out = Fv.mul_into ~dst:out v.(0) v.(1)

(* The opening argument is a basefold-style interleaving: the claim
   [v = sum_b f(b) * eq(q, b)] runs through a degree-2 sumcheck over the
   tables [A = f] and [E = eq(q)], and each round's challenge [r_i] also
   folds the committed codeword, which keeps the codeword in sync as the
   coefficient vector of [f(r_1..r_i, .)]. After the last round the
   codeword is the constant [f~(r)], so the verifier can close the
   sumcheck with [f~(r) * eq~(q, r)] and needs only FRI-style spot checks
   (no second commitment, no trusted evaluation).

   The tables [a]/[e] and every codeword layer are [Spill.t] vectors,
   touched one block at a time: one block per layer in RAM with no budget,
   budget-sized blocks over spill files under one. Goldilocks ops are
   exact and canonical, so the accumulation order fixes the bits and the
   proof bytes are the same for every block size. Each block's fold starts
   its running product of [w^-1] at [Gf.pow w_inv j]; same field element
   for every split. *)
let open_at ?engine params committed transcript point =
  ignore (engine : Zk_pcs.Engine.t option);
  let cm = committed.c_commitment in
  let l = cm.num_vars in
  if Array.length point <> l then invalid_arg "Fri_pcs.open_at: point dimension";
  let n = Spill.length committed.table in
  let domain = Spill.length committed.evals in
  let budget = committed.budget in
  let block = match budget with None -> domain | Some b -> block_of_budget b in
  (* Back a fresh working vector with a file only when it would bite into
     the budget; small tails stay in RAM (reads/writes are uniform). Every
     exit — success, cancellation, an injected I/O fault — frees them all;
     layer 0 is the committed codeword and stays alive until
     [free_committed]. *)
  let temps = ref [] in
  let fresh tag len =
    let spill = match budget with None -> false | Some b -> len * 8 > b / 4 in
    let s = Spill.create ~tag ~spill len in
    if spill then temps := s :: !temps;
    s
  in
  Fun.protect ~finally:(fun () -> List.iter Spill.free !temps) @@ fun () ->
  (* Staging for file-backed blocks; RAM-backed blocks are read in place. *)
  let bsz = max 1 (min block (max (n / 2) (domain / 2))) in
  let stage () = Fv.create (if Option.is_some budget then bsz else 0) in
  let alo = stage () and ahi = stage () in
  let elo = stage () and ehi = stage () in
  Transcript.absorb_gf transcript "fripcs/point" point;
  (* Working copies: a = table, e = eq(point). The eq table is generated
     directly into blocks via the aligned-range factorization. *)
  let a = fresh "fri-open-a" n in
  let pos = ref 0 in
  while !pos < n do
    Pool.Cancel.check ();
    let len = min bsz (n - !pos) in
    Spill.write a ~pos:!pos (Spill.view committed.table ~pos:!pos ~len ~buf:alo);
    pos := !pos + len
  done;
  let e = fresh "fri-open-e" n in
  Mle.eq_table_spill point ~block e;
  let value =
    let acc = ref Gf.zero in
    let pos = ref 0 in
    while !pos < n do
      let len = min bsz (n - !pos) in
      let av = Spill.view a ~pos:!pos ~len ~buf:alo in
      let ev = Spill.view e ~pos:!pos ~len ~buf:elo in
      for i = 0 to len - 1 do
        acc := Gf.add !acc (Gf.mul (Fv.get av i) (Fv.get ev i))
      done;
      pos := !pos + len
    done;
    !acc
  in
  Transcript.absorb_gf transcript "fripcs/value" [| value |];
  let round_polys = Array.make l [||] in
  let challenges = Array.make l Gf.zero in
  let layers = ref [ committed.evals ] in
  let trees = ref [ committed.tree ] in
  let a = ref a and e = ref e in
  let len = ref n in
  for round = 0 to l - 1 do
    Pool.Cancel.check ();
    let half = !len / 2 in
    (* Pass 1: the round polynomial g(t) = sum_b A_t(b) * E_t(b) with the
       top variable pinned to t, tabulated at t = 0, 1, 2 on the vector
       sumcheck kernel, block by block (Goldilocks sums are exact, so the
       block split does not change g). *)
    let g = Array.make 3 Gf.zero in
    let b = ref 0 in
    while !b < half do
      let bl = min bsz (half - !b) in
      let alv = Spill.view !a ~pos:!b ~len:bl ~buf:alo in
      let ahv = Spill.view !a ~pos:(!b + half) ~len:bl ~buf:ahi in
      let elv = Spill.view !e ~pos:!b ~len:bl ~buf:elo in
      let ehv = Spill.view !e ~pos:(!b + half) ~len:bl ~buf:ehi in
      let part =
        Sumcheck.round_poly ~degree:2 ~comb:product ~comb_mults:1 ~lo:[| alv; elv |]
          ~hi:[| ahv; ehv |]
      in
      Array.iteri (fun t v -> g.(t) <- Gf.add g.(t) v) part;
      b := !b + bl
    done;
    round_polys.(round) <- g;
    Transcript.absorb_gf transcript "fripcs/round" g;
    let r = Transcript.challenge_gf transcript "fripcs/r" in
    challenges.(round) <- r;
    (* Pass 2: bind the top variable of both tables into fresh vectors.
       An output block may share the low input's staging buffer: element i
       is read before it is written. *)
    let a' = fresh "fri-open-a" half and e' = fresh "fri-open-e" half in
    let b = ref 0 in
    while !b < half do
      let bl = min bsz (half - !b) in
      let alv = Spill.view !a ~pos:!b ~len:bl ~buf:alo in
      let ahv = Spill.view !a ~pos:(!b + half) ~len:bl ~buf:ahi in
      let elv = Spill.view !e ~pos:!b ~len:bl ~buf:elo in
      let ehv = Spill.view !e ~pos:(!b + half) ~len:bl ~buf:ehi in
      let aout = Spill.writable a' ~pos:!b ~len:bl ~buf:alo in
      let eout = Spill.writable e' ~pos:!b ~len:bl ~buf:elo in
      Sumcheck.fold ~dst:[| aout; eout |] ~lo:[| alv; elv |] ~hi:[| ahv; ehv |] r;
      Spill.store a' ~pos:!b aout;
      Spill.store e' ~pos:!b eout;
      b := !b + bl
    done;
    Spill.free !a;
    Spill.free !e;
    a := a';
    e := e';
    len := half;
    (* ...and fold the codeword with the same challenge, blockwise (the
       output may share the low input's staging buffer, as above). *)
    let cw = List.hd !layers in
    let cw_len = Spill.length cw in
    let cw_half = cw_len / 2 in
    let w_inv = Gf.inv (Gf.root_of_unity (log2_exact cw_len)) in
    let next = fresh "fri-layer" cw_half in
    let j = ref 0 in
    while !j < cw_half do
      let bl = min bsz (cw_half - !j) in
      let lo = Spill.view cw ~pos:!j ~len:bl ~buf:alo in
      let hi = Spill.view cw ~pos:(!j + cw_half) ~len:bl ~buf:ahi in
      let dst = Spill.writable next ~pos:!j ~len:bl ~buf:alo in
      Fri.fold_block ~x_inv:(Gf.pow w_inv (Int64.of_int !j)) ~w_inv ~lo ~hi ~dst r;
      Spill.store next ~pos:!j dst;
      j := !j + bl
    done;
    layers := next :: !layers;
    let tree = commit_layer_spill next ~block in
    trees := tree :: !trees;
    Transcript.absorb_digest transcript "fripcs/layer" (Merkle.root tree)
  done;
  let layer_arr = Array.of_list (List.rev !layers) in
  let trees = Array.of_list (List.rev !trees) in
  let final_constant = Spill.get layer_arr.(l) 0 in
  Transcript.absorb_gf transcript "fripcs/final" [| final_constant |];
  let positions =
    Transcript.challenge_indices transcript "fripcs/queries" ~bound:(domain / 2)
      ~count:params.num_queries
  in
  (* Query [q] opens a pair and its path in every layer: pair [k = q *
     layers + i] at [2k], paths back to back. One query costs ~2µs a
     layer. *)
  let nq = Array.length positions and layers = l + 1 in
  let depths = Array.map Merkle.depth trees in
  let per_query = sum depths in
  let pairs = Fv.create (2 * nq * layers) and paths = Fv.create (4 * nq * per_query) in
  Pool.run ~grain:(Pool.grain_of_ns (max 1 (layers * 2_000))) ~n:nq (fun lo hi ->
      for q = lo to hi - 1 do
        let lane = ref (4 * q * per_query) in
        Array.iteri
          (fun i layer ->
            let half = Spill.length layer / 2 in
            let pos = positions.(q) mod half in
            let k = (q * layers) + i in
            Fv.set pairs (2 * k) (Spill.get layer pos);
            Fv.set pairs ((2 * k) + 1) (Spill.get layer (pos + half));
            Merkle.path_into trees.(i) pos paths ~pos:!lane;
            lane := !lane + (4 * depths.(i)))
          layer_arr
      done);
  ( value,
    {
      round_polys;
      layer_roots = Array.init l (fun i -> Merkle.root trees.(i + 1));
      final_constant;
      positions;
      layer_count = Array.make nq layers;
      pairs;
      path_len = Array.init (nq * layers) (fun k -> depths.(k mod layers));
      paths;
    } )

module E = Zk_pcs.Verify_error

(* The evaluation domain is a power-of-two subgroup of the Goldilocks
   multiplicative group, whose 2-adicity is 32: a wire commitment claiming
   more variables than the domain can hold is hostile, and bounding it here
   keeps [1 lsl (l + blowup_log2)] and [root_of_unity] in range. *)
let max_domain_log2 = 32

let validate_commitment params (cm : commitment) =
  let ( let* ) = Result.bind in
  let* () =
    match validate_params params with
    | Ok () -> Ok ()
    | Error e -> E.error E.Params (param_error_to_string e)
  in
  if String.length cm.root <> 32 then
    E.errorf E.Shape "commitment root has %d bytes, wanted 32" (String.length cm.root)
  else if cm.num_vars < 0 || cm.num_vars + params.blowup_log2 > max_domain_log2 then
    E.errorf E.Params "num_vars %d outside [0, %d]" cm.num_vars
      (max_domain_log2 - params.blowup_log2)
  else Ok ()

(* The positions in [0, n) that satisfy [p], in order. *)
let select n p = Array.of_list (List.filter p (List.init n Fun.id))

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

(* Every query of an opening in one batch, in stages: positions and layer
   counts; the opened pairs of the well-shaped queries as the columns of
   one [2 x (layers * ns)] matrix, hashed into leaves in one
   {!Keccak.hash_cols_into}; per layer, every path of the honest length
   walked together ({!Merkle.check_paths}); then each query's fold chain
   and final constant. Layer [i] has [2^(domain_log2 - i)] points and its
   tree [2^(domain_log2 - i - 1)] leaves, so every honest path there is
   [domain_log2 - i - 1] long; a path of another length gets the scalar
   {!Merkle.check_path} and its reason. The verdict is the first failing
   query, with its first failing (layer, check) in the order a one query,
   one layer at a time walk meets them. *)
let check_queries ~roots ~domain_log2 ~challenges ~positions proof =
  let nq = Array.length positions in
  let layers = Array.length roots in
  let first = offsets proof.layer_count and path_pos = offsets proof.path_len in
  let verdict =
    Array.init nq (fun q ->
        if proof.positions.(q) <> positions.(q) then Bad_position
        else if proof.layer_count.(q) <> layers then Bad_layer_count
        else Query_ok)
  in
  let shaped = select nq (fun q -> verdict.(q) = Query_ok) in
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
    let full = select ns (fun w -> proof.path_len.(first.(shaped.(w)) + i) = depth) in
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
        let k = first.(q) + i in
        let len = proof.path_len.(k) in
        if len <> depth then begin
          let path = List.init len (fun d -> Keccak.digest_at proof.paths (path_pos.(k) + d)) in
          match
            Merkle.check_path ~root:roots.(i) ~index:(leaf_pos w)
              ~leaf:(Keccak.digest_at leaves ((i * ns) + w))
              ~path
          with
          | Ok () -> ()
          | Error reason -> bad_path.((i * ns) + w) <- Some reason
        end)
      shaped
  done;
  (* The fold chain of one query, as in {!Fri.verify} (plain subgroup: the
     shift is 1 at every layer): the value at position [j] of layer [i + 1]
     is the fold of layer [i]'s pair at [j]. *)
  let final_constant = proof.final_constant in
  let w_invs = Array.init (layers - 1) (fun i -> Gf.inv (Gf.root_of_unity (domain_log2 - i))) in
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
          walk (i + 1) leaf_pos (Fri.fold_at ~x_inv challenges.(i) a b)
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

let verify ?engine params (cm : commitment) transcript point value proof =
  ignore (engine : Zk_pcs.Engine.t option);
  let ( let* ) = Result.bind in
  let* () = validate_commitment params cm in
  let l = cm.num_vars in
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
          expected := Dense.interpolate_eval_small g r;
          Transcript.absorb_digest transcript "fripcs/layer" proof.layer_roots.(i);
          round (i + 1)
        end
      end
    in
    round 0
  in
  Transcript.absorb_gf transcript "fripcs/final" [| proof.final_constant |];
  (* The folded codeword constant is f~(r); it must close the sumcheck. *)
  let* () =
    if Gf.equal !expected (Gf.mul proof.final_constant (Mle.eq_point point challenges))
    then Ok ()
    else E.error E.Sumcheck_mismatch "final claim does not match the folded constant"
  in
  let positions =
    Transcript.challenge_indices transcript "fripcs/queries"
      ~bound:(1 lsl (l + params.blowup_log2 - 1))
      ~count:params.num_queries
  in
  let* () =
    if num_queries proof <> params.num_queries then E.error E.Shape "wrong number of queries"
    else if not (well_formed proof) then
      E.error E.Shape "query openings do not match their buffers"
    else Ok ()
  in
  check_queries ~roots:(Array.append [| cm.root |] proof.layer_roots)
    ~domain_log2:(l + params.blowup_log2) ~challenges ~positions proof

let proof_size_bytes params (cm : commitment) proof =
  ignore params;
  ignore cm;
  let field = 8 and digest = 32 and index = 8 in
  let round_bytes =
    Array.fold_left (fun acc g -> acc + (field * Array.length g)) 0 proof.round_polys
  in
  (* A position per query; two elements and a path per opened layer. *)
  let query_bytes =
    (index * num_queries proof) + (field * Fv.length proof.pairs) + (8 * Fv.length proof.paths)
  in
  round_bytes + (digest * Array.length proof.layer_roots) + field + query_bytes

let stats params (cm : commitment) proof =
  {
    Zk_pcs.Pcs.backend = name;
    num_vars = cm.num_vars;
    commitment_bytes = 32;
    proof_bytes = proof_size_bytes params cm proof;
    queries = num_queries proof;
  }

(* --- byte forms --- *)

let write_commitment buf (cm : commitment) =
  Codec.put_digest buf cm.root;
  Codec.put_int buf cm.num_vars

let read_commitment r =
  let ( let* ) = Result.bind in
  let* root = Codec.get_digest r in
  let* num_vars = Codec.get_len r in
  Ok { root; num_vars }

let write_eval_proof buf p =
  Codec.put_int buf (Array.length p.round_polys);
  Array.iter (Codec.put_gf_array buf) p.round_polys;
  Codec.put_int buf (Array.length p.layer_roots);
  Array.iter (Codec.put_digest buf) p.layer_roots;
  Codec.put_gf buf p.final_constant;
  Codec.put_int buf (num_queries p);
  let k = ref 0 and lane = ref 0 in
  Array.iteri
    (fun q position ->
      Codec.put_int buf position;
      Codec.put_int buf p.layer_count.(q);
      for _ = 1 to p.layer_count.(q) do
        let len = p.path_len.(!k) in
        Codec.put_gf buf (Fv.get p.pairs (2 * !k));
        Codec.put_gf buf (Fv.get p.pairs ((2 * !k) + 1));
        Codec.put_int buf len;
        Codec.put_digest_lanes buf (Fv.sub_view p.paths ~pos:!lane ~len:(4 * len));
        lane := !lane + (4 * len);
        incr k
      done)
    p.positions

(* A growable int array, filled front to back. *)
type ints = { mutable ints : int array; mutable count : int }

let push v x =
  if v.count = Array.length v.ints then begin
    let a = Array.make (max 16 (2 * v.count)) 0 in
    Array.blit v.ints 0 a 0 v.count;
    v.ints <- a
  end;
  v.ints.(v.count) <- x;
  v.count <- v.count + 1

(* Every field is read in wire order with the checks the tuple decoder
   ran: [Codec.get_fv_into] one element at a time for a pair, so a
   truncated or non-canonical odd value fails as a lone [get_gf] does, and
   [Codec.need_digests] for a path. The buffers grow while the first query
   decodes, then take room for [nq - 1] more of its shape, which sizes an
   honest proof's buffers exactly. Every array and buffer is bounded by
   the bytes left before it is allocated. *)
let read_eval_proof r =
  let ( let* ) = Result.bind in
  let* round_polys = Codec.get_array r Codec.get_gf_array in
  let* layer_roots = Codec.get_array r Codec.get_digest in
  let* final_constant = Codec.get_gf r in
  let* nq = Codec.get_len r in
  (* A query spends at least 16 bytes on its two integers, and an opened
     layer at least 24 on its pair and path length. *)
  let cap = min nq (Codec.remaining r / 16) in
  let positions = Array.make cap 0 and layer_count = Array.make cap 0 in
  let pairs = Codec.fill () and paths = Codec.fill () in
  let path_len = { ints = [||]; count = 0 } in
  (* The loops stop at the first error by exception rather than [let*],
     so decoding a layer allocates no continuation closures. *)
  let exception Bad of E.t in
  let ok = function Ok x -> x | Error e -> raise_notrace (Bad e) in
  let get_gf_into (f : Codec.fill) =
    ok (Codec.get_fv_into r ~len:1 f.buf ~pos:f.used);
    f.used <- f.used + 1
  in
  match
    for q = 0 to nq - 1 do
      let position = ok (Codec.get_len r) in
      let nl = ok (Codec.get_len r) in
      for _ = 1 to nl do
        Codec.reserve pairs 2 ~hint:0;
        get_gf_into pairs;
        get_gf_into pairs;
        let len = ok (Codec.get_len r) in
        ok (Codec.need_digests r len);
        Codec.reserve paths (4 * len) ~hint:0;
        ok (Codec.get_digest_lanes_into r ~count:len paths.buf ~pos:paths.used);
        paths.used <- paths.used + (4 * len);
        push path_len len
      done;
      positions.(q) <- position;
      layer_count.(q) <- nl;
      if q = 0 then begin
        let room (f : Codec.fill) =
          Codec.reserve f (min ((nq - 1) * f.used) (Codec.remaining r / 8)) ~hint:0
        in
        room pairs;
        room paths
      end
    done
  with
  | exception Bad e -> Error e
  | () ->
    Ok
      {
        round_polys;
        layer_roots;
        final_constant;
        positions;
        layer_count;
        pairs = Codec.contents pairs;
        path_len = Array.sub path_len.ints 0 path_len.count;
        paths = Codec.contents paths;
      }
