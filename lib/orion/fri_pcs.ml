module Gf = Zk_field.Gf
module Mle = Zk_poly.Mle
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

type params = Fri.params = { blowup_log2 : int; num_queries : int }

let default_params = Fri.default_params
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
  sumcheck : Sumcheck.proof; (* one degree-2 polynomial (3 evals) per variable *)
  layer_roots : Merkle.digest array; (* roots of the folded layers 1..num_vars *)
  final_constant : Gf.t;
  queries : Fri.queries;
}

let num_queries p = Array.length p.queries.Fri.positions

(* Hypercube evaluations -> univariate coefficients, arranged so that
   monomial bit [j - 1] carries variable [j] (the j-th variable the
   sumcheck binds; variable 1 is the MSB of the evaluation index). With
   that arrangement {!Fri.fold_layer}'s coefficient action
   [c'_i = c_{2i} + r * c_{2i+1}] is exactly "substitute the round
   challenge for the variable the sumcheck just bound", so one challenge
   drives both the sumcheck tables and the codeword. *)
let monomial_coeffs_into table (dst : Fv.t) =
  let n = Array.length table in
  let l = Zk_util.Pow2.log2_exact "Fri" n in
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

let commit ?engine params rng table =
  (match validate_params params with
  | Ok () -> ()
  | Error e -> invalid_arg ("Fri_pcs.commit: " ^ param_error_to_string e));
  ignore (rng : Zk_util.Rng.t); (* non-hiding backend: no masks to draw *)
  let n = Array.length table in
  let num_vars = Zk_util.Pow2.log2_exact "Fri" n in
  let domain = n lsl params.blowup_log2 in
  (* Layer-0 codeword: the flat NTT of the zero-padded coefficients. *)
  let evals = Fv.create domain in
  Fv.zero evals;
  monomial_coeffs_into table evals;
  Ntt_fv.forward (Ntt_fv.plan domain) evals;
  let tree = Fri.commit_layer ~budget:None (Spill.of_fv evals) in
  let c_commitment = { root = Merkle.root tree; num_vars } in
  let budget = Option.bind engine Zk_pcs.Engine.stream_budget_bytes in
  match budget with
  | None ->
    ( { c_commitment; table = Spill.of_fv (Fv.of_array table); evals = Spill.of_fv evals;
        budget; tree },
      c_commitment )
  | Some _ ->
    (* The NTT itself ran in RAM — O(domain) resident at 8 bytes/element
       (documented limit); the win is downstream: the codeword and table
       spill, and the opening's fold pyramid never materializes. *)
    (* One walk over the table's rows stages both spills: each table row
       carries its [blowup] codeword elements, copied from the flat
       vector. *)
    let blowup = 1 lsl params.blowup_log2 in
    let s_evals = Spill.create ~tag:"fri-evals" ~spill:true domain in
    let s_table = Spill.create ~tag:"fri-table" ~spill:true n in
    Spill.walk ~rows:n
      ~block:(Spill.block_rows ~budget ~row_bytes:(8 * (blowup + 1)) n)
      ~write:[ (s_evals, 0, blowup); (s_table, 0, 1) ]
      (fun ~pos ~len _ dsts ->
        Fv.blit ~src:evals ~src_pos:(pos * blowup) ~dst:dsts.(0) ~dst_pos:0 ~len:(len * blowup);
        Fv.write_array table ~src_pos:pos dsts.(1) ~dst_pos:0 ~len);
    ({ c_commitment; table = s_table; evals = s_evals; budget; tree }, c_commitment)

let free_committed c =
  Spill.free c.table;
  Spill.free c.evals

let absorb_commitment transcript (cm : commitment) =
  Transcript.absorb_digest transcript "fripcs/root" cm.root;
  Transcript.absorb_int transcript "fripcs/num_vars" cm.num_vars

let commitment_num_vars (cm : commitment) = cm.num_vars

(* The opening's sumcheck framing, on both sides: the claim is the opened
   value, and [after_round] runs after each round's challenge (the
   prover's codeword fold and layer commit, the verifier's absorb of that
   layer's root). *)
let framing ~after_round =
  {
    Sumcheck.prelude =
      (fun t ~num_vars:_ ~degree:_ value -> Transcript.absorb_gf t "fripcs/value" [| value |]);
    round_label = "fripcs/round";
    challenge_label = "fripcs/r";
    after_round;
  }

(* The opening argument is a basefold-style interleaving: the claim
   [v = sum_b f(b) * eq(q, b)] runs through a degree-2 sumcheck
   ({!Sumcheck.prove}) over the tables [A = f] and [E = eq(q)], and each
   round's challenge [r_i] also folds the committed codeword, which keeps
   the codeword in sync as the coefficient vector of [f(r_1..r_i, .)].
   After the last round the codeword is the constant [f~(r)], so the
   verifier can close the sumcheck with [f~(r) * eq~(q, r)] and needs only
   FRI-style spot checks (no second commitment, no trusted evaluation).

   The sumcheck reads the committed table in place and works out [v]
   itself; under a budget it takes its recompute-halves path over the
   spilled table and eq table. Every codeword layer is a [Spill.t] vector,
   folded and committed by {!Fri.fold_layer}: one block per layer in RAM
   with no budget, {!Spill.block_rows} blocks over spill files under one. The
   proof bytes are the same for every block size. *)
let open_at ?engine params committed transcript point =
  ignore (engine : Zk_pcs.Engine.t option);
  let cm = committed.c_commitment in
  let l = cm.num_vars in
  if Array.length point <> l then invalid_arg "Fri_pcs.open_at: point dimension";
  let n = Spill.length committed.table in
  let domain = Spill.length committed.evals in
  let budget = committed.budget in
  (* Back a fresh vector with a file only when it would bite into the
     budget; small tails stay in RAM (reads/writes are uniform). Every
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
  Transcript.absorb_gf transcript "fripcs/point" point;
  (* The eq table is generated directly into blocks via the aligned-range
     factorization. *)
  let e = fresh "fri-eq" n in
  Mle.eq_table_spill point ~budget e;
  (* Round [i]'s challenge folds layer [i] into layer [i + 1]. *)
  let layers = Array.make (l + 1) committed.evals in
  let trees = Array.make (l + 1) committed.tree in
  let fold_layer i r =
    layers.(i + 1) <- fresh "fri-layer" (Spill.length layers.(i) / 2);
    trees.(i + 1) <- Fri.fold_layer ~shift:Gf.one ~budget layers.(i) r ~dst:layers.(i + 1);
    Transcript.absorb_digest transcript "fripcs/layer" (Merkle.root trees.(i + 1))
  in
  let sc =
    Sumcheck.prove ?budget_bytes:budget ~framing:(framing ~after_round:fold_layer) transcript
      ~tables:[| committed.table; e |] ~comb:Sumcheck.Product
  in
  let final_constant = Spill.get layers.(l) 0 in
  Transcript.absorb_gf transcript "fripcs/final" [| final_constant |];
  let positions =
    Transcript.challenge_indices transcript "fripcs/queries" ~bound:(domain / 2)
      ~count:params.num_queries
  in
  ( sc.Sumcheck.claim,
    {
      sumcheck = sc.Sumcheck.proof;
      layer_roots = Array.init l (fun i -> Merkle.root trees.(i + 1));
      final_constant;
      queries = Fri.open_queries layers trees positions;
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
  (* Both counts are checked before any transcript work, rounds first, so
     a proof with both wrong reads this backend's round-count message
     rather than [Sumcheck.verify]'s. *)
  let* () =
    if Array.length proof.sumcheck.Sumcheck.round_polys = l then Ok ()
    else E.error E.Shape "wrong number of sumcheck rounds"
  in
  let* () =
    if Array.length proof.layer_roots = l then Ok ()
    else E.error E.Shape "wrong number of fold layers"
  in
  Transcript.absorb_gf transcript "fripcs/point" point;
  let after_round i _ = Transcript.absorb_digest transcript "fripcs/layer" proof.layer_roots.(i) in
  let* sc =
    Sumcheck.verify ~framing:(framing ~after_round) transcript ~degree:2 ~num_vars:l
      ~claim:value proof.sumcheck
  in
  let challenges = sc.Sumcheck.point in
  Transcript.absorb_gf transcript "fripcs/final" [| proof.final_constant |];
  (* The folded codeword constant is f~(r); it must close the sumcheck. *)
  let* () =
    if Gf.equal sc.Sumcheck.value (Gf.mul proof.final_constant (Mle.eq_point point challenges))
    then Ok ()
    else E.error E.Sumcheck_mismatch "final claim does not match the folded constant"
  in
  let positions =
    Transcript.challenge_indices transcript "fripcs/queries"
      ~bound:(1 lsl (l + params.blowup_log2 - 1))
      ~count:params.num_queries
  in
  Fri.check_queries ~shift:Gf.one
    ~roots:(Array.append [| cm.root |] proof.layer_roots)
    ~domain_log2:(l + params.blowup_log2) ~challenges ~positions
    ~final_constant:proof.final_constant proof.queries

let proof_size_bytes params (cm : commitment) proof =
  ignore params;
  ignore cm;
  (* The sumcheck, and a FRI proof without layer 0's root (the commitment). *)
  Sumcheck.proof_size_bytes proof.sumcheck
  + Fri.proof_size_bytes
      { layer_roots = proof.layer_roots; final_constant = proof.final_constant;
        queries = proof.queries }

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
  Sumcheck.write_proof buf p.sumcheck;
  Codec.put_int buf (Array.length p.layer_roots);
  Array.iter (Codec.put_digest buf) p.layer_roots;
  Codec.put_gf buf p.final_constant;
  let q = p.queries in
  Codec.put_int buf (num_queries p);
  let k = ref 0 and lane = ref 0 in
  Array.iteri
    (fun i position ->
      Codec.put_int buf position;
      Codec.put_int buf q.Fri.layer_count.(i);
      for _ = 1 to q.Fri.layer_count.(i) do
        let len = q.Fri.path_len.(!k) in
        Codec.put_gf buf (Fv.get q.Fri.pairs (2 * !k));
        Codec.put_gf buf (Fv.get q.Fri.pairs ((2 * !k) + 1));
        Codec.put_int buf len;
        Codec.put_digest_lanes buf (Fv.sub_view q.Fri.paths ~pos:!lane ~len:(4 * len));
        lane := !lane + (4 * len);
        incr k
      done)
    q.Fri.positions

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
  let* sumcheck = Sumcheck.read_proof r in
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
        sumcheck;
        layer_roots;
        final_constant;
        queries =
          {
            Fri.positions;
            layer_count;
            pairs = Codec.contents pairs;
            path_len = Array.sub path_len.ints 0 path_len.count;
            paths = Codec.contents paths;
          };
      }
