module Gf = Zk_field.Gf
module Transcript = Zk_hash.Transcript
module Mle = Zk_poly.Mle
module Dense = Zk_poly.Dense
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

(* Spartan's first combiner eq * (az * bz - cz) over [| eq; az; bz; cz |]:
   degree 3, two multiplications per point. *)
let spartan_comb v out =
  Fv.mul_into ~dst:out v.(1) v.(2);
  Fv.sub_into ~dst:out out v.(3);
  Fv.mul_into ~dst:out out v.(0)

let log2_exact n =
  if n <= 0 || n land (n - 1) <> 0 then invalid_arg "Sumcheck: table size must be a power of two";
  let rec go k m = if m = 1 then k else go (k + 1) (m lsr 1) in
  go 0 n

module Arena = Nocap_vec.Arena

(* Adds to [g] the round polynomial's sums over one block of points, given
   the blocks' lo halves (t = 0) and hi halves (t = 1) of every table. The
   values at t = 0 and t = 1 are the halves themselves; each t >= 2 is a
   [lerp_into] at the field constant t. Each point's [comb] writes the
   elementwise combiner into [out], which is summed into g(t). Scratch
   comes from this domain's arena and is reclaimed on return. *)
let eval_block ~degree ~comb ~lo ~hi g =
  Arena.with_frame @@ fun () ->
  let m = Fv.length lo.(0) in
  let out = Arena.alloc m in
  let point t tabs =
    comb tabs out;
    g.(t) <- Gf.add g.(t) (Fv.sum out)
  in
  point 0 lo;
  if degree >= 1 then point 1 hi;
  if degree >= 2 then begin
    let pts = Array.map (fun _ -> Arena.alloc m) lo in
    for t = 2 to degree do
      let c = Gf.of_int t in
      Array.iteri (fun j p -> Fv.lerp_into ~dst:p lo.(j) hi.(j) c) pts;
      point t pts
    done
  end

(* The round polynomial g(t), t = 0..degree, over the points whose lo/hi
   halves are [lo.(j)]/[hi.(j)] (equal-length vectors). The points split
   into 1024-point chunks evaluated in parallel, each producing a partial
   g; partials are added back in chunk order (and Gf addition is exact),
   so g is byte-identical for every domain count. *)
let round_poly ~degree ~comb ~comb_mults ~lo ~hi =
  let k = Array.length lo in
  Pool.fold_chunks ~chunk:1024
    (* One index evaluates the combiner at degree+1 points on the vector
       kernels; the fixed chunk:1024 pins the combine order for every
       grain. *)
    ~grain:(Pool.grain_of_ns (max 1 ((degree + 1) * (comb_mults + k) * 4)))
    ~n:(Fv.length lo.(0))
    ~init:(Array.make (degree + 1) Gf.zero)
    ~body:(fun a b ->
      let view t = Fv.sub_view t ~pos:a ~len:(b - a) in
      let g = Array.make (degree + 1) Gf.zero in
      eval_block ~degree ~comb ~lo:(Array.map view lo) ~hi:(Array.map view hi) g;
      g)
    ~combine:(fun acc part ->
      for t = 0 to degree do
        acc.(t) <- Gf.add acc.(t) part.(t)
      done;
      acc)
    ()

(* T(b) <- T(b) + r * (T(b + half) - T(b)) for every table, into [dst]
   (which may be [lo] itself: the kernel is elementwise). *)
let fold ~dst ~lo ~hi r =
  let k = Array.length lo in
  Pool.run ~grain:(Pool.grain_of_ns (4 * k)) ~n:(Fv.length lo.(0)) (fun a b ->
      let view t = Fv.sub_view t ~pos:a ~len:(b - a) in
      for j = 0 to k - 1 do
        Fv.lerp_into ~dst:(view dst.(j)) (view lo.(j)) (view hi.(j)) r
      done)

(* The round loop over unboxed in-RAM tables: every round of an unbudgeted
   proof, and the tail of a budgeted one from [round0] (the round at which
   the shrinking tables first fit the budget). [tabs] hold the current
   generation; unless [in_place], they are the caller's and round [round0]
   folds out of place into fresh half-length vectors, after which every
   fold is in place. [finish round g] publishes a round polynomial and
   returns its challenge. Returns the one-element final tables. *)
let run_rounds ~comb_mults ~degree ~comb ~tabs ~in_place ~num_vars ~round0 ~finish =
  let tabs = ref tabs and in_place = ref in_place in
  for round = round0 to num_vars - 1 do
    Pool.Cancel.check ();
    let half = Fv.length !tabs.(0) / 2 in
    let lo = Array.map (fun t -> Fv.sub_view t ~pos:0 ~len:half) !tabs in
    let hi = Array.map (fun t -> Fv.sub_view t ~pos:half ~len:half) !tabs in
    let r = finish round (round_poly ~degree ~comb ~comb_mults ~lo ~hi) in
    let dst = if !in_place then lo else Array.map (fun _ -> Fv.create half) lo in
    fold ~dst ~lo ~hi r;
    tabs := dst;
    in_place := true
  done;
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
   budget-sized blocks, and accumulates T_j values on the fly; nothing but
   O(block) scratch and the 2^j weight vector stays resident. Goldilocks
   arithmetic is exact, so the recomputed values — and hence every round
   polynomial, challenge, and final value — are bit-identical to folding.

   Each recomputed lo/hi block pair goes through the same chunk evaluator
   ({!round_poly}) as the in-RAM rounds. As the residual table length
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
let prove ?(comb_mults = 0) ?budget_bytes ?(framing = default_framing) transcript ~degree
    ~tables ~comb =
  let budget =
    match budget_bytes with
    | None -> max_int
    | Some b when b <= 0 -> invalid_arg "Sumcheck.prove: budget must be positive"
    | Some b -> b
  in
  if degree < 1 then invalid_arg "Sumcheck.prove: degree must be at least 1";
  let k = Array.length tables in
  if k = 0 then invalid_arg "Sumcheck.prove: no tables";
  let n = Spill.length tables.(0) in
  let num_vars = log2_exact n in
  Array.iter
    (fun t ->
      if Spill.length t <> n then invalid_arg "Sumcheck.prove: table size mismatch")
    tables;
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
  let block =
    let b = max 256 (budget / (8 * ((3 * k) + 2))) in
    min b (max 1 (n / 2))
  in
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
    let pos = ref 0 in
    while !pos < half do
      Pool.Cancel.check ();
      let len = min block (half - !pos) in
      for t = 0 to k - 1 do
        recompute ~w ~stride tables.(t) acc_lo.(t) ~pos:!pos ~len;
        recompute ~w ~stride tables.(t) acc_hi.(t) ~pos:(!pos + half) ~len
      done;
      let view v = Fv.sub_view v ~pos:0 ~len in
      let part =
        round_poly ~degree ~comb ~comb_mults ~lo:(Array.map view acc_lo)
          ~hi:(Array.map view acc_hi)
      in
      Array.iteri (fun t x -> g.(t) <- Gf.add g.(t) x) part;
      pos := !pos + len
    done;
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
          let pos = ref 0 in
          while !pos < stride do
            Pool.Cancel.check ();
            let len = min block (stride - !pos) in
            recompute ~w ~stride tj (Fv.sub_view dst ~pos:!pos ~len) ~pos:!pos ~len;
            pos := !pos + len
          done;
          dst
        end)
      tables
  in
  let final =
    run_rounds ~comb_mults ~degree ~comb ~tabs ~in_place:(not in_ram) ~num_vars ~round0
      ~finish
  in
  (* With no rounds the claim is [comb] at the single point. *)
  if num_vars = 0 then begin
    let g = [| Gf.zero |] in
    eval_block ~degree:0 ~comb ~lo:final ~hi:final g;
    bind_claim g.(0)
  end;
  {
    proof = { round_polys };
    claim = !claim;
    challenges;
    final_values = Array.map (fun t -> Fv.get t 0) final;
    stats = { rounds = num_vars; mults = !mults; adds = !adds };
  }

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
          expected := Dense.interpolate_eval_small g r;
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
