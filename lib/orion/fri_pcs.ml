module Gf = Zk_field.Gf
module Mle = Zk_poly.Mle
module Dense = Zk_poly.Dense
module Merkle = Zk_merkle.Merkle
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

type eval_proof = {
  round_polys : Gf.t array array; (* one degree-2 polynomial (3 evals) per variable *)
  layer_roots : Merkle.digest array; (* roots of the folded layers 1..num_vars *)
  final_constant : Gf.t;
  queries : (int * (Gf.t * Gf.t * Merkle.digest list) array) array;
}

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
let monomial_coeffs table =
  let n = Array.length table in
  let l = log2_exact n in
  let c = Array.copy table in
  (* Evaluations to multilinear monomial coefficients, one variable (index
     bit) at a time: (f(0), f(1)) |-> (f(0), f(1) - f(0)). *)
  let stride = ref 1 in
  while !stride < n do
    let s = !stride in
    let block = 2 * s in
    let i = ref 0 in
    while !i < n do
      for j = !i to !i + s - 1 do
        c.(j + s) <- Gf.sub c.(j + s) c.(j)
      done;
      i := !i + block
    done;
    stride := block
  done;
  if l = 0 then c
  else begin
    (* Bit-reverse: variable j lives at evaluation-index bit (l - j), and
       must land at monomial bit (j - 1). *)
    let rev m =
      let acc = ref 0 and m = ref m in
      for _ = 1 to l do
        acc := (!acc lsl 1) lor (!m land 1);
        m := !m lsr 1
      done;
      !acc
    in
    Array.init n (fun m -> c.(rev m))
  end

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
  Fv.write_array (monomial_coeffs table) ~src_pos:0 evals ~dst_pos:0 ~len:n;
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
  let pool = Option.bind engine Zk_pcs.Engine.pool in
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
        Sumcheck.round_poly ?pool ~degree:2 ~comb:product ~comb_mults:1 ~lo:[| alv; elv |]
          ~hi:[| ahv; ehv |] ()
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
      Sumcheck.fold ?pool ~dst:[| aout; eout |] ~lo:[| alv; elv |] ~hi:[| ahv; ehv |] r;
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
      Fri.fold_block ?pool ~x_inv:(Gf.pow w_inv (Int64.of_int !j)) ~w_inv ~lo ~hi ~dst r;
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
  let queries =
    (* One query opens a pair + Merkle path per layer, ~2µs per layer. *)
    Pool.parallel_map ?pool
      ~grain:(Pool.grain_of_ns (max 1 (Array.length layer_arr * 2_000)))
      (fun position ->
        let opened =
          Array.mapi
            (fun i layer ->
              let half = Spill.length layer / 2 in
              let pos = position mod half in
              (Spill.get layer pos, Spill.get layer (pos + half), Merkle.path trees.(i) pos))
            layer_arr
        in
        (position, opened))
      positions
  in
  ( value,
    {
      round_polys;
      layer_roots = Array.init l (fun i -> Merkle.root trees.(i + 1));
      final_constant;
      queries;
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
  let domain = 1 lsl (l + params.blowup_log2) in
  let positions =
    Transcript.challenge_indices transcript "fripcs/queries" ~bound:(domain / 2)
      ~count:params.num_queries
  in
  let* () =
    if Array.length proof.queries = params.num_queries then Ok ()
    else E.error E.Shape "wrong number of queries"
  in
  let roots = Array.append [| cm.root |] proof.layer_roots in
  (* Layer i has 2^(l + blowup_log2 - i) points; its inverse root. *)
  let w_invs =
    Array.init l (fun i -> Gf.inv (Gf.root_of_unity (l + params.blowup_log2 - i)))
  in
  let rec check_query qi =
    if qi >= Array.length proof.queries then Ok ()
    else begin
      let position, opened = proof.queries.(qi) in
      if position <> positions.(qi) then E.errorf E.Consistency "query %d: position mismatch" qi
      else if Array.length opened <> l + 1 then E.errorf E.Shape "query %d: layer count" qi
      else begin
        (* Walk the fold chain exactly as in {!Fri.verify} (plain subgroup:
           the shift is 1 at every layer). *)
        let rec walk i layer_size j exp =
          let half = layer_size / 2 in
          let leaf_pos = j mod half in
          let av, bv, path = opened.(i) in
          let leaf = Merkle.leaf_of_column [| av; bv |] in
          match Merkle.check_path ~root:roots.(i) ~index:leaf_pos ~leaf ~path with
          | Error reason -> E.errorf E.Merkle_mismatch "query %d layer %d: %s" qi i reason
          | Ok () ->
            let value_at_j = if j >= half then bv else av in
            let consistent =
              match exp with None -> true | Some v -> Gf.equal v value_at_j
            in
            if not consistent then
              E.errorf E.Consistency "query %d layer %d: fold mismatch" qi i
            else if i = l then
              if Gf.equal av proof.final_constant && Gf.equal bv proof.final_constant
              then Ok ()
              else E.errorf E.Consistency "query %d: final layer not constant" qi
            else begin
              let x_inv = Gf.pow w_invs.(i) (Int64.of_int leaf_pos) in
              walk (i + 1) half leaf_pos (Some (Fri.fold_at ~x_inv challenges.(i) av bv))
            end
        in
        match walk 0 domain position None with
        | Error e -> Error e
        | Ok () -> check_query (qi + 1)
      end
    end
  in
  check_query 0

let proof_size_bytes params (cm : commitment) proof =
  ignore params;
  ignore cm;
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
    num_vars = cm.num_vars;
    commitment_bytes = 32;
    proof_bytes = proof_size_bytes params cm proof;
    queries = Array.length proof.queries;
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
  let* round_polys = Codec.get_array r Codec.get_gf_array in
  let* layer_roots = Codec.get_array r Codec.get_digest in
  let* final_constant = Codec.get_gf r in
  let* queries =
    Codec.get_array r (fun r ->
        let* position = Codec.get_len r in
        let* opened =
          Codec.get_array r (fun r ->
              let* a = Codec.get_gf r in
              let* b = Codec.get_gf r in
              let* path = Codec.get_digest_list r in
              Ok (a, b, path))
        in
        Ok (position, opened))
  in
  Ok { round_polys; layer_roots; final_constant; queries }
