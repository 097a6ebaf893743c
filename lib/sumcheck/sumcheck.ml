module Gf = Zk_field.Gf
module Transcript = Zk_hash.Transcript
module Mle = Zk_poly.Mle
module Pool = Nocap_parallel.Pool
module Fv = Nocap_vec.Fv

type proof = { round_polys : Gf.t array array }

type stats = { rounds : int; mults : int; adds : int }

type prover_result = {
  proof : proof;
  claim : Gf.t;
  challenges : Gf.t array;
  final_values : Gf.t array;
  stats : stats;
}

type verifier_result = { point : Gf.t array; value : Gf.t }

type framing = {
  prelude : Transcript.t -> num_vars:int -> degree:int -> Gf.t -> unit;
  round_label : string;
  challenge_label : string;
  after_round : int -> Gf.t -> unit;
}

let default_framing =
  {
    prelude =
      (fun t ~num_vars ~degree claim ->
        Transcript.absorb_int t "sumcheck/num_vars" num_vars;
        Transcript.absorb_int t "sumcheck/degree" degree;
        Transcript.absorb_gf t "sumcheck/claim" [| claim |]);
    round_label = "sumcheck/round";
    challenge_label = "sumcheck/challenge";
    after_round = (fun _ _ -> ());
  }

type comb = Eq_abc | Product | Eq_abc_batch of Gf.t array

let degree = function Eq_abc | Eq_abc_batch _ -> 3 | Product -> 2
let comb_mults = function
  | Eq_abc -> 2
  | Product -> 1
  | Eq_abc_batch rho -> 2 * Array.length rho

let log2_exact n =
  if n <= 0 || n land (n - 1) <> 0 then invalid_arg "Sumcheck: table size must be a power of two";
  let rec go k m = if m = 1 then k else go (k + 1) (m lsr 1) in
  go 0 n

module Native = Nocap_native.Native

(* The native kernel's sums land in this domain's four-entry buffer. *)
let sums_key = Domain.DLS.new_key (fun () -> Fv.create 4)

(* The kernel calls of one pass, each [(kind, src, dst)] in
   [Native.sumcheck_round]'s form: [src] holds each table's lo/hi halves
   (2 views per table) or, when [dst] is not empty, the previous
   generation's quarters (4 per table), which fold with the round's
   challenge into [dst]'s lo/hi halves first. [Eq_abc_batch] makes one
   kind-0 call per instance over [| eq; a_i; b_i; c_i |]. The eq table
   folds in the first call only: later calls take its freshly folded
   halves as all four quarters, and lo + r * (lo - lo) = lo stores them
   back unchanged. *)
let kernel_calls comb ~src ~dst =
  match comb with
  | Eq_abc -> [| (0, src, dst) |]
  | Product -> [| (1, src, dst) |]
  | Eq_abc_batch rho ->
    let p = if Array.length dst = 0 then 2 else 4 in
    let eq_first = Array.sub src 0 p in
    let eq_later = if p = 2 then eq_first else [| dst.(0); dst.(1); dst.(0); dst.(1) |] in
    Array.mapi
      (fun i _ ->
        let j = (3 * i) + 1 in
        let abc_src = Array.sub src (p * j) (3 * p) in
        ( 0,
          Array.append (if i = 0 then eq_first else eq_later) abc_src,
          if p = 2 then [||] else Array.append (Array.sub dst 0 2) (Array.sub dst (2 * j) 6) ))
      rho

(* One round's pass over the pairs [a, b) of every call, with [r] the
   previous challenge when the calls fold; returns the pairs'
   g(0..degree), a batch's calls weighted by its rho. *)
let pass_chunk comb calls ~r a b =
  let g = Domain.DLS.get sums_key in
  let run (kind, src, dst) = Native.sumcheck_round kind src dst a b r g in
  match comb with
  | Eq_abc | Product ->
    run calls.(0);
    Array.init (degree comb + 1) (Fv.unsafe_get g)
  | Eq_abc_batch rho ->
    let acc = Array.make 4 Gf.zero in
    Array.iteri
      (fun i call ->
        run call;
        for t = 0 to 3 do
          acc.(t) <- Gf.add acc.(t) (Gf.mul rho.(i) (Fv.unsafe_get g t))
        done)
      calls;
    acc

(* Per-pair cost (ns) of a folding pass on the AVX2 tier (an evaluating
   one costs about half), for the pool's grain. *)
let pair_ns = function Eq_abc -> 48 | Product -> 20 | Eq_abc_batch rho -> 48 * Array.length rho

(* The round polynomial g(t), t = 0..degree, over [h] pairs. The pairs
   split into 1024-pair chunks run in parallel, each producing a partial
   g; partials are added back in chunk order (and Gf addition is exact),
   so g is byte-identical for every domain count. *)
let pass comb ~r ~src ~dst ~h =
  let d = degree comb in
  let calls = kernel_calls comb ~src ~dst in
  Pool.fold_chunks ~chunk:1024
    ~grain:(Pool.grain_of_ns (pair_ns comb))
    ~n:h
    ~init:(Array.make (d + 1) Gf.zero)
    ~body:(pass_chunk comb calls ~r)
    ~combine:(fun acc part ->
      for t = 0 to d do
        acc.(t) <- Gf.add acc.(t) part.(t)
      done;
      acc)
    ()

(* [parts] equal views of each table, table by table. *)
let halves_of tabs ~parts =
  let len = Fv.length tabs.(0) / parts in
  Array.init (parts * Array.length tabs) (fun i ->
      Fv.sub_view tabs.(i / parts) ~pos:(i mod parts * len) ~len)

(* The native kernel trusts its arguments: the table count must match the
   combiner and every table have one length. *)
let check_tables name comb ~len tables =
  let k = Array.length tables in
  (match comb with
  | Eq_abc when k <> 4 -> invalid_arg (name ^ ": Eq_abc takes four tables")
  | Product when k <> 2 -> invalid_arg (name ^ ": Product takes two tables")
  | Eq_abc_batch rho when Array.length rho = 0 || k <> 1 + (3 * Array.length rho) ->
    invalid_arg (name ^ ": Eq_abc_batch takes one eq and three tables per weight")
  | _ -> ());
  Array.iter
    (fun t -> if len t <> len tables.(0) then invalid_arg (name ^ ": table size mismatch"))
    tables

let round_kernel comb ?fold tabs =
  check_tables "Sumcheck.round_kernel" comb ~len:Fv.length tabs;
  let len = Fv.length tabs.(0) in
  let bad () = invalid_arg "Sumcheck.round_kernel: bad table length" in
  match fold with
  | None ->
    if len < 2 || len mod 2 <> 0 then bad ();
    pass comb ~r:Gf.zero ~src:(halves_of tabs ~parts:2) ~dst:[||] ~h:(len / 2)
  | Some (r, dst) ->
    if len < 4 || len mod 4 <> 0 || Array.length dst <> Array.length tabs
       || Array.exists (fun d -> Fv.length d <> len / 2) dst
    then bad ();
    pass comb ~r ~src:(halves_of tabs ~parts:4) ~dst:(halves_of dst ~parts:2) ~h:(len / 4)

(* The round loop over unboxed in-RAM tables: every round of an unbudgeted
   proof, and the tail of a budgeted one from [round0] (the round at which
   the shrinking tables first fit the budget). [tabs] hold generation
   [round0]; unless [in_place], they are the caller's and the first fold
   writes fresh half-length vectors, after which every fold is in place.
   Each round after the first folds the tables with the previous
   challenge in the same pass that evaluates its polynomial. [finish
   round g] publishes a round polynomial and returns its challenge.
   Returns the tables' values at the challenge point. *)
let run_rounds ~comb ~tabs ~in_place ~num_vars ~round0 ~finish =
  let tabs = ref tabs and in_place = ref in_place and prev = ref None in
  for round = round0 to num_vars - 1 do
    Pool.Cancel.check ();
    let g =
      match !prev with
      | None -> round_kernel comb !tabs
      | Some r ->
        let half = Fv.length !tabs.(0) / 2 in
        let dst =
          if !in_place then Array.map (fun t -> Fv.sub_view t ~pos:0 ~len:half) !tabs
          else Array.map (fun _ -> Fv.create half) !tabs
        in
        let g = round_kernel comb ~fold:(r, dst) !tabs in
        tabs := dst;
        in_place := true;
        g
    in
    prev := Some (finish round g)
  done;
  (* The last challenge's fold, from two entries to one. *)
  Array.map
    (fun t ->
      let x = Fv.get t 0 in
      match !prev with
      | None -> x
      | Some r -> Gf.add x (Gf.mul r (Gf.sub (Fv.get t 1) x)))
    !tabs

module Spill = Nocap_vec.Spill

(* The prover over spillable tables (recompute-halves).

   Folding a table in place holds, after round j, the length-(n >> j)
   generation of every table. Under a budget the prover never stores any
   folded generation: after j rounds with challenges r_0..r_{j-1}, the
   current table is a weighted sum of strided slices of the ORIGINAL
   table,

     T_j(b) = sum_{m < 2^j} w_j(m) * T_0(m * (n >> j) + b),

   where w_j = Mle.eq_table [r_0..r_{j-1}] — the same doubling recurrence
   the fold applies, factored out (the recompute-halves / two-pass trick).
   Each streamed round therefore reads every original table once, in
   [Spill.block_rows] blocks, and accumulates T_j values on the fly; nothing but
   O(block) scratch and the 2^j weight vector stays resident. Goldilocks
   arithmetic is exact, so the recomputed values — and hence every round
   polynomial, challenge, and final value — are bit-identical to folding.

   Each recomputed lo/hi block pair goes through the same pass ({!pass})
   as the in-RAM rounds. As the residual table length
   n >> j shrinks, it eventually fits half the budget; at that point the
   tables are materialized into RAM once and {!run_rounds} finishes. With
   no budget the tables fit at round 0 and every round runs in
   {!run_rounds}: RAM-backed tables are read where they are (the first
   fold writes fresh half-length vectors, so the caller's tables are never
   written), and file-backed ones are loaded into RAM copies first.

   The claim is round 0's g(0) + g(1), and computing g touches no
   transcript, so the prelude that binds it is absorbed just before round
   0's g: the transcript is the one a prover handed the claim would build.

   [stats] reports the protocol's arithmetic, not the recomputation
   overhead, so it is the same for every budget. *)
let prove ?budget_bytes ?(framing = default_framing) transcript ~tables ~comb =
  let degree = degree comb and comb_mults = comb_mults comb in
  let budget =
    match budget_bytes with
    | None -> max_int
    | Some b when b <= 0 -> invalid_arg "Sumcheck.prove: budget must be positive"
    | Some b -> b
  in
  let k = Array.length tables in
  check_tables "Sumcheck.prove" comb ~len:Spill.length tables;
  let n = Spill.length tables.(0) in
  let num_vars = log2_exact n in
  let mults = ref 0 and adds = ref 0 in
  let claim = ref Gf.zero in
  let round_polys = Array.make num_vars [||] in
  let challenges = Array.make num_vars Gf.zero in
  let bind_claim c =
    claim := c;
    framing.prelude transcript ~num_vars ~degree c
  in
  let finish round g =
    if round = 0 then bind_claim (Gf.add g.(0) g.(1));
    let half = n lsr (round + 1) in
    (* The round polynomial's evaluation, then the fold. *)
    adds := !adds + (half * (degree + 1) * (k + 1)) + (2 * k * half);
    mults := !mults + (half * (degree + 1) * comb_mults) + (k * half);
    round_polys.(round) <- g;
    Transcript.absorb_gf transcript framing.round_label g;
    let r = Transcript.challenge_gf transcript framing.challenge_label in
    challenges.(round) <- r;
    framing.after_round round r;
    r
  in
  (* Residual tables fit the materialization half of the budget when
     k * (n >> j) * 8 <= budget / 2. *)
  let fits len = len <= 1 || k * len * 8 <= budget / 2 in
  (* Streamed-round scratch: per table an accumulator pair (lo/hi) plus a
     read buffer, all block-sized — 3k + slack vectors of 8 bytes/elem. *)
  let block = Spill.block_rows ~budget:budget_bytes ~row_bytes:(8 * ((3 * k) + 2)) (n / 2) in
  let scratch =
    lazy
      ( Fv.create block,
        Array.init k (fun _ -> Fv.create block),
        Array.init k (fun _ -> Fv.create block) )
  in
  (* T_round(pos .. pos+len) of table [tj] into [dst], given the
     eq-weights [w] of the challenges so far. *)
  let recompute ~w ~stride tj dst ~pos ~len =
    let buf, _, _ = Lazy.force scratch in
    let dstv = Fv.sub_view dst ~pos:0 ~len in
    Fv.zero dstv;
    let bufv = Fv.sub_view buf ~pos:0 ~len in
    for m = 0 to Fv.length w - 1 do
      Spill.read tj ~pos:((m * stride) + pos) bufv;
      Fv.axpy_into ~dst:dstv (Fv.unsafe_get w m) bufv
    done
  in
  let round = ref 0 in
  while not (fits (n lsr !round)) do
    let _, acc_lo, acc_hi = Lazy.force scratch in
    let j = !round in
    let stride = n lsr j in
    let half = stride / 2 in
    let w = Mle.eq_fv (Array.sub challenges 0 j) in
    let g = Array.make (degree + 1) Gf.zero in
    Spill.walk ~rows:half ~block (fun ~pos ~len _ _ ->
        for t = 0 to k - 1 do
          recompute ~w ~stride tables.(t) acc_lo.(t) ~pos ~len;
          recompute ~w ~stride tables.(t) acc_hi.(t) ~pos:(pos + half) ~len
        done;
        let src =
          Array.init (2 * k) (fun i ->
              Fv.sub_view (if i land 1 = 0 then acc_lo else acc_hi).(i / 2) ~pos:0 ~len)
        in
        let part = pass comb ~r:Gf.zero ~src ~dst:[||] ~h:len in
        Array.iteri (fun t x -> g.(t) <- Gf.add g.(t) x) part);
    ignore (finish j g : Gf.t);
    incr round
  done;
  (* Materialize the residual generation into RAM once and finish with the
     in-RAM loop. At round 0 RAM-backed tables are read where they are
     (the first fold writes fresh half-length vectors); spilled ones are
     loaded into RAM copies the loop may fold in place. *)
  let round0 = !round in
  let stride = n lsr round0 in
  let w = Mle.eq_fv (Array.sub challenges 0 round0) in
  let in_ram = round0 = 0 && not (Array.exists Spill.is_spilled tables) in
  let tabs =
    Array.map
      (fun tj ->
        if in_ram then Spill.as_fv tj
        else if round0 = 0 then Spill.to_fv tj
        else begin
          let dst = Fv.create stride in
          Spill.walk ~rows:stride ~block (fun ~pos ~len _ _ ->
              recompute ~w ~stride tj (Fv.sub_view dst ~pos ~len) ~pos ~len);
          dst
        end)
      tables
  in
  (* With no rounds the claim is [comb] at the single point: g(0) of a
     pass whose one pair is that point twice. *)
  if num_vars = 0 then
    bind_claim
      (pass comb ~r:Gf.zero ~src:(Array.init (2 * k) (fun i -> tabs.(i / 2))) ~dst:[||] ~h:1).(0);
  let final_values = run_rounds ~comb ~tabs ~in_place:(not in_ram) ~num_vars ~round0 ~finish in
  {
    proof = { round_polys };
    claim = !claim;
    challenges;
    final_values;
    stats = { rounds = num_vars; mults = !mults; adds = !adds };
  }

(* --- round-polynomial evaluation: barycentric weights for the nodes
   0..d --- *)

(* w_i = 1 / prod_{j <> i} (i - j) = (-1)^(d-i) / (i! (d-i)!), one table
   per degree, filled on first use in each domain. *)
let weights_key = Domain.DLS.new_key (fun () -> Hashtbl.create 4)

let round_weights d =
  if d < 0 then invalid_arg "Sumcheck.round_weights: negative degree";
  let cache = Domain.DLS.get weights_key in
  match Hashtbl.find_opt cache d with
  | Some w -> w
  | None ->
    let fact = Array.make (d + 1) Gf.one in
    for i = 1 to d do
      fact.(i) <- Gf.mul fact.(i - 1) (Gf.of_int i)
    done;
    let w =
      Array.init (d + 1) (fun i ->
          let x = Gf.inv (Gf.mul fact.(i) fact.(d - i)) in
          if (d - i) land 1 = 1 then Gf.neg x else x)
    in
    Hashtbl.add cache d w;
    w

(* g(r) = sum_i g(i) * w_i * prod_{j <> i} (r - j), the products taken
   from a suffix table and a running prefix of the factors (r - j). No
   inversion; at a node every term but the node's own has a zero factor. *)
let eval_round_poly g r =
  let d = Array.length g - 1 in
  let w = round_weights d in
  let suffix = Array.make (d + 1) Gf.one in
  for i = d - 1 downto 0 do
    suffix.(i) <- Gf.mul suffix.(i + 1) (Gf.sub r (Gf.of_int (i + 1)))
  done;
  let acc = ref Gf.zero and prefix = ref Gf.one in
  for i = 0 to d do
    acc := Gf.add !acc (Gf.mul (Gf.mul g.(i) w.(i)) (Gf.mul !prefix suffix.(i)));
    prefix := Gf.mul !prefix (Gf.sub r (Gf.of_int i))
  done;
  !acc

module E = Zk_pcs.Verify_error

let verify ?(framing = default_framing) transcript ~degree ~num_vars ~claim proof =
  if degree < 1 || num_vars < 0 then
    E.errorf E.Params "invalid sumcheck shape (degree %d, %d vars)" degree num_vars
  else if Array.length proof.round_polys <> num_vars then
    E.error E.Shape "wrong number of rounds"
  else begin
    framing.prelude transcript ~num_vars ~degree claim;
    let expected = ref claim in
    let point = Array.make num_vars Gf.zero in
    let rec go round =
      if round = num_vars then Ok { point; value = !expected }
      else begin
        let g = proof.round_polys.(round) in
        if Array.length g <> degree + 1 then
          E.errorf E.Shape "round %d: wrong degree" round
        else if not (Gf.equal (Gf.add g.(0) g.(1)) !expected) then
          E.errorf E.Sumcheck_mismatch "round %d: g(0) + g(1) does not match the claim" round
        else begin
          Transcript.absorb_gf transcript framing.round_label g;
          let r = Transcript.challenge_gf transcript framing.challenge_label in
          point.(round) <- r;
          framing.after_round round r;
          expected := eval_round_poly g r;
          go (round + 1)
        end
      end
    in
    go 0
  end

(* --- byte form: the round count, then each round polynomial
   length-prefixed --- *)

module Codec = Zk_pcs.Codec

let write_proof buf p =
  Codec.put_int buf (Array.length p.round_polys);
  Array.iter (Codec.put_gf_array buf) p.round_polys

let read_proof r =
  Result.map
    (fun round_polys -> { round_polys })
    (Codec.get_array r (fun r -> Result.map Fv.to_array (Codec.get_fv r)))

let proof_size_bytes p =
  Array.fold_left (fun acc g -> acc + (8 * Array.length g)) 0 p.round_polys
