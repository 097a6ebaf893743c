module Gf = Zk_field.Gf
module Transcript = Zk_hash.Transcript
module Mle = Zk_poly.Mle
module Sparse = Zk_r1cs.Sparse
module R1cs = Zk_r1cs.R1cs
module Sumcheck = Zk_sumcheck.Sumcheck
module Engine = Zk_pcs.Engine
module Codec = Zk_pcs.Codec
module E = Zk_pcs.Verify_error
module Fv = Nocap_vec.Fv
module Spill = Nocap_vec.Spill
module Pool = Nocap_parallel.Pool

let magic = "NCAP2\x00\x00\x00"
let legacy_magic = "NCAP1\x00\x00\x00"

(* Registry of wire tags across all in-tree backends, for decode errors
   that name the backend a mismatched blob actually came from. *)
let backend_name_of_tag t =
  if Char.equal t Zk_orion.Orion_pcs.tag then Some Zk_orion.Orion_pcs.name
  else if Char.equal t Zk_orion.Fri_pcs.tag then Some Zk_orion.Fri_pcs.name
  else None

let backend_of_bytes data =
  let ( let* ) = Result.bind in
  let r = Codec.reader data in
  match Codec.expect_string r magic with
  | Error _ -> (
    match Codec.expect_string r legacy_magic with
    | Ok () -> Ok Zk_orion.Orion_pcs.name
    | Error _ -> E.error E.Bad_header "bad magic")
  | Ok () -> (
    let* t = Codec.get_byte r in
    match backend_name_of_tag t with
    | Some name -> Ok name
    | None -> E.errorf E.Bad_header "unknown backend tag 0x%02x" (Char.code t))

(* The binding digest of the matrices, hashed once by [R1cs.make]: the
   instance is frozen after [make] (see r1cs.mli), so every proof and every
   verification on one circuit reads the same field instead of rehashing
   ~24 bytes per nonzero. *)
let instance_digest (inst : R1cs.instance) = inst.R1cs.digest

(* The multilinear extension of the io half at a point over (L-1) variables,
   computed from the live io prefix only (everything else is zero): only
   the smallest aligned power-of-two block of the eq table covering that
   prefix is built. *)
let io_mle_eval io_live point =
  let live = Array.length io_live in
  if live > 1 lsl Array.length point then invalid_arg "Spartan: io longer than the io half";
  let len = ref 1 in
  while !len < live do
    len := 2 * !len
  done;
  let eq = Fv.create !len in
  Mle.eq_table_into point ~lo:0 eq;
  let acc = ref Gf.zero in
  for j = 0 to live - 1 do
    acc := Gf.add !acc (Gf.mul io_live.(j) (Fv.unsafe_get eq j))
  done;
  !acc

(* Row-blocked Az/Bz/Cz, written straight into the vectors' blocks: each
   block is checked for satisfiability before it is stored; under a budget
   the three dense vectors never coexist in RAM. *)
let fill_abc ~budget inst zfv =
  let n = R1cs.size inst in
  let spill = Option.is_some budget in
  let az = Spill.create ~tag:"spartan-az" ~spill n in
  let bz = Spill.create ~tag:"spartan-bz" ~spill n in
  let cz = Spill.create ~tag:"spartan-cz" ~spill n in
  Spill.walk ~rows:n
    ~block:(Spill.block_rows ~budget ~row_bytes:(8 * 3) n)
    ~write:[ (az, 0, 1); (bz, 0, 1); (cz, 0, 1) ]
    (fun ~pos ~len _ dsts ->
      let ab = dsts.(0) and bb = dsts.(1) and cb = dsts.(2) in
      Sparse.spmv_into inst.R1cs.a ~x:zfv ~r_lo:pos ab;
      Sparse.spmv_into inst.R1cs.b ~x:zfv ~r_lo:pos bb;
      Sparse.spmv_into inst.R1cs.c ~x:zfv ~r_lo:pos cb;
      for i = 0 to len - 1 do
        let abi = Gf.mul (Fv.unsafe_get ab i) (Fv.unsafe_get bb i) in
        if not (Gf.equal abi (Fv.unsafe_get cb i)) then
          invalid_arg "Spartan: assignment does not satisfy the instance"
      done);
  (az, bz, cz)

let fill_eq ~tag ~budget point =
  let s = Spill.create ~tag ~spill:(Option.is_some budget) (1 lsl Array.length point) in
  Mle.eq_table_spill point ~budget s;
  s

(* ~15 ns per nonzero (two multiplications and an add) and ~15 ns per
   column per call (its pointers and the load/store of its slot). *)
let fill_m_grain inst =
  Pool.grain_of_ns (15 + (15 * R1cs.nnz inst / R1cs.size inst))

(* [hi] scaled by each of r_abc: the random combination of A, B and C
   folded into one sqrt(n)-sized table per matrix. *)
let scaled_by_abc hi r_abc =
  Array.map
    (fun r ->
      let v = Fv.create (Fv.length hi) in
      Fv.scale_into ~dst:v hi r;
      v)
    r_abc

(* Column-blocked M~ table, gathered row by row from the transposes of
   A, B, C: M~(y) = sum over column y's entries (row, v) of
   v * hi_k(row lsr s) * lo(row land (2^s - 1)), with (hi, lo, s) r_x's
   [Mle.eq_split] and hi_k = r_abc.(k) * hi. Two sqrt(n)-sized tables
   replace the full eq(r_x, .) vector, so a fill costs O(nnz + n) for
   every block size. Each window is split across the pool and summed
   straight into its block. *)
let fill_m ~budget inst ~rx ~r_abc =
  let n = R1cs.size inst in
  if Array.length rx <> inst.R1cs.log_size || Array.length r_abc <> 3 then
    invalid_arg "Spartan.fill_m: r_x must have log_size entries and r_abc three";
  let hi, lo, _ = Mle.eq_split rx in
  let his = scaled_by_abc hi r_abc in
  let grain = fill_m_grain inst in
  let m = Spill.create ~tag:"spartan-m" ~spill:(Option.is_some budget) n in
  let block = Spill.block_rows ~budget ~row_bytes:8 n in
  Spill.walk ~rows:n ~block ~write:[ (m, 0, 1) ] (fun ~pos:c_lo ~len _ dsts ->
      Pool.run ~grain ~n:len (fun j0 j1 ->
          let dst = Fv.sub_view dsts.(0) ~pos:j0 ~len:(j1 - j0) in
          Fv.zero dst;
          Array.iteri
            (fun k mt -> Sparse.gather_acc mt ~hi:his.(k) ~lo ~r_lo:(c_lo + j0) dst)
            inst.R1cs.columns));
  m

(* The verifier's M~(r_x, r_y) = sum_k r_abc.(k) * M_k~(r_x, r_y) over
   M = A, B, C: one CSR walk per matrix against the tensor-split eq tables
   of r_x (rows) and r_y (columns), with r_abc.(k) folded into matrix k's
   column-hi table. 4 sqrt(n) table entries and O(nnz) work. *)
let abc_eval inst ~rx ~ry ~r_abc =
  let row_hi, row_lo, _ = Mle.eq_split rx and col_hi, col_lo, _ = Mle.eq_split ry in
  let col_his = scaled_by_abc col_hi r_abc in
  let acc = ref Gf.zero in
  List.iteri
    (fun k m ->
      acc := Gf.add !acc (Sparse.mle_eval_split m ~row_hi ~row_lo ~col_hi:col_his.(k) ~col_lo))
    [ inst.R1cs.a; inst.R1cs.b; inst.R1cs.c ];
  !acc

module type S = sig
  module P : Zk_pcs.Pcs.S

  type params = { pcs : P.params; repetitions : int }

  val default_params : params
  val test_params : params

  type rep_proof = {
    sc1 : Zk_sumcheck.Sumcheck.proof;
    va : Gf.t;
    vb : Gf.t;
    vc : Gf.t;
    sc2 : Zk_sumcheck.Sumcheck.proof;
    vw : Gf.t;
    w_open : P.eval_proof;
  }

  type proof = { w_commitment : P.commitment; reps : rep_proof array }

  type prover_stats = {
    sumcheck_mults : int;
    sumcheck_adds : int;
    spmv_mults : int;
    transcript_hashes : int;
  }

  val prove :
    ?engine:Zk_pcs.Engine.t ->
    ?rng:Zk_util.Rng.t ->
    params ->
    Zk_r1cs.R1cs.instance ->
    Zk_r1cs.R1cs.assignment ->
    proof * prover_stats

  val verify :
    ?engine:Zk_pcs.Engine.t ->
    params ->
    Zk_r1cs.R1cs.instance ->
    io:Gf.t array ->
    proof ->
    (unit, Zk_pcs.Verify_error.t) result

  val proof_size_bytes : params -> proof -> int
  val instance_digest : Zk_r1cs.R1cs.instance -> Zk_hash.Keccak.digest
  val magic : string
  val proof_to_bytes : proof -> bytes
  val proof_of_bytes : bytes -> (proof, Zk_pcs.Verify_error.t) result
  val serialized_size : proof -> int
end

module Make (P0 : Zk_pcs.Pcs.S) = struct
  module P = P0

  type params = { pcs : P.params; repetitions : int }

  let default_params = { pcs = P.default_params; repetitions = 3 }
  let test_params = { pcs = P.test_params; repetitions = 1 }

  type rep_proof = {
    sc1 : Sumcheck.proof;
    va : Gf.t;
    vb : Gf.t;
    vc : Gf.t;
    sc2 : Sumcheck.proof;
    vw : Gf.t;
    w_open : P.eval_proof;
  }

  type proof = { w_commitment : P.commitment; reps : rep_proof array }

  type prover_stats = {
    sumcheck_mults : int;
    sumcheck_adds : int;
    spmv_mults : int;
    transcript_hashes : int;
  }

  let instance_digest = instance_digest

  (* "spartan-orion" for the default backend — the historical label, so
     Orion-backend transcripts (and proof bytes) are unchanged; other
     backends are domain-separated by their name. *)
  let start_transcript params inst io =
    let t = Transcript.create ("spartan-" ^ P.name) in
    Transcript.absorb_digest t "instance" (instance_digest inst);
    Transcript.absorb_int t "repetitions" params.repetitions;
    Transcript.absorb_gf t "io" io;
    t

  (* One dataflow for every budget: every full-length intermediate
     (Az/Bz/Cz, the eq tables, the M~ table, the sumcheck generations, the
     PCS working set) is a [Spill.t] filled one row/column block at a time.
     With no budget there is one block spanning the whole vector and every
     vector is RAM-backed; under a budget, [Spill.block_rows] sizes the
     blocks and the vectors live in spill files. Transcript traffic, RNG draws and
     arithmetic are the same either way, so the proof bytes are too. The
     only full-length resident the prover does not allocate is the
     caller's z, which SpMV, the second sumcheck and the commitment read
     in place. *)
  let prove ?engine ?rng params inst z =
    let engine = Engine.resolve engine in
    let rng = match rng with Some r -> r | None -> Zk_util.Rng.create 0x5EED_CAFEL in
    let budget = Engine.stream_budget_bytes engine in
    let l = inst.R1cs.log_size in
    R1cs.check_assignment inst z;
    (* Raises before any commitment work on an unsatisfied assignment. *)
    let az, bz, cz = fill_abc ~budget inst z in
    (* Every exit — success, cancellation, an injected I/O fault — releases
       the spilled vectors deterministically. *)
    Fun.protect
      ~finally:(fun () ->
        Spill.free az;
        Spill.free bz;
        Spill.free cz)
    @@ fun () ->
    let transcript = start_transcript params inst (R1cs.public_io inst z) in
    (* Commit to the witness half; the engine budget sizes the backend's
       blocks the same way. *)
    let committed, w_commitment = P.commit ~engine params.pcs rng (R1cs.witness inst z) in
    Fun.protect ~finally:(fun () -> P.free_committed committed) @@ fun () ->
    P.absorb_commitment transcript w_commitment;
    let spmv_mults = ref (R1cs.nnz inst) in
    let sc_mults = ref 0 and sc_adds = ref 0 in
    let z_spill = Spill.of_fv z in
    let reps =
      Array.init params.repetitions (fun _ ->
          (* --- Sumcheck #1 --- *)
          let tau = Transcript.challenge_gf_vec transcript "tau" l in
          let eq_tau = fill_eq ~tag:"spartan-eqtau" ~budget tau in
          let r1 =
            Fun.protect ~finally:(fun () -> Spill.free eq_tau) @@ fun () ->
            Sumcheck.prove ?budget_bytes:budget transcript ~tables:[| eq_tau; az; bz; cz |]
              ~comb:Sumcheck.Eq_abc
          in
          sc_mults := !sc_mults + r1.Sumcheck.stats.Sumcheck.mults;
          sc_adds := !sc_adds + r1.Sumcheck.stats.Sumcheck.adds;
          let rx = r1.Sumcheck.challenges in
          let va = r1.Sumcheck.final_values.(1) in
          let vb = r1.Sumcheck.final_values.(2) in
          let vc = r1.Sumcheck.final_values.(3) in
          Transcript.absorb_gf transcript "claims-abc" [| va; vb; vc |];
          (* --- Sumcheck #2 --- *)
          let r_abc = Transcript.challenge_gf_vec transcript "r-abc" 3 in
          let m_table = fill_m ~budget inst ~rx ~r_abc in
          spmv_mults := !spmv_mults + R1cs.nnz inst;
          let r2 =
            Fun.protect ~finally:(fun () -> Spill.free m_table) @@ fun () ->
            Sumcheck.prove ?budget_bytes:budget transcript ~tables:[| m_table; z_spill |]
              ~comb:Sumcheck.Product
          in
          sc_mults := !sc_mults + r2.Sumcheck.stats.Sumcheck.mults;
          sc_adds := !sc_adds + r2.Sumcheck.stats.Sumcheck.adds;
          let ry = r2.Sumcheck.challenges in
          (* Open w~ at ry minus the top variable. *)
          let ry_rest = Array.sub ry 1 (l - 1) in
          let vw, w_open = P.open_at ~engine params.pcs committed transcript ry_rest in
          Transcript.absorb_gf transcript "vw" [| vw |];
          { sc1 = r1.Sumcheck.proof; va; vb; vc; sc2 = r2.Sumcheck.proof; vw; w_open })
    in
    ( { w_commitment; reps },
      {
        sumcheck_mults = !sc_mults;
        sumcheck_adds = !sc_adds;
        spmv_mults = !spmv_mults;
        transcript_hashes = Transcript.hash_count transcript;
      } )

  let verify ?engine params inst ~io proof =
    let engine = Engine.resolve engine in
    let ( let* ) = Result.bind in
    let* () =
      if Array.length proof.reps = params.repetitions then Ok ()
      else E.error E.Shape "wrong number of repetitions"
    in
    let* () =
      if Array.length io >= 1 && Gf.equal io.(0) Gf.one then Ok ()
      else E.error E.Params "io must start with the constant 1"
    in
    let l = inst.R1cs.log_size in
    let* () =
      if l >= 1 then Ok ()
      else E.error E.Params "instance must have at least one variable"
    in
    let transcript = start_transcript params inst io in
    P.absorb_commitment transcript proof.w_commitment;
    let rec check_rep k =
      if k >= Array.length proof.reps then Ok ()
      else begin
        let rep = proof.reps.(k) in
        let tau = Transcript.challenge_gf_vec transcript "tau" l in
        let* v1 =
          Sumcheck.verify transcript ~degree:3 ~num_vars:l ~claim:Gf.zero rep.sc1
        in
        let rx = v1.Sumcheck.point in
        (* eq(tau, rx) the verifier computes in O(L). *)
        let eq_tau_rx = Mle.eq_point tau rx in
        let expected1 = Gf.mul eq_tau_rx (Gf.sub (Gf.mul rep.va rep.vb) rep.vc) in
        let* () =
          if Gf.equal expected1 v1.Sumcheck.value then Ok ()
          else E.errorf E.Sumcheck_mismatch "rep %d: sumcheck-1 final claim mismatch" k
        in
        Transcript.absorb_gf transcript "claims-abc" [| rep.va; rep.vb; rep.vc |];
        let r_abc = Transcript.challenge_gf_vec transcript "r-abc" 3 in
        let claim2 =
          Gf.add
            (Gf.mul r_abc.(0) rep.va)
            (Gf.add (Gf.mul r_abc.(1) rep.vb) (Gf.mul r_abc.(2) rep.vc))
        in
        let* v2 =
          Sumcheck.verify transcript ~degree:2 ~num_vars:l ~claim:claim2 rep.sc2
        in
        let ry = v2.Sumcheck.point in
        (* M~(ry) = rA * A~(rx,ry) + rB * B~(rx,ry) + rC * C~(rx,ry), evaluated
           directly from the sparse matrices in O(nnz). *)
        let m_at_ry = abc_eval inst ~rx ~ry ~r_abc in
        (* z~(ry) = (1 - ry_0) * w~(ry_rest) + ry_0 * io~(ry_rest). *)
        let ry_rest = Array.sub ry 1 (l - 1) in
        let io_eval = io_mle_eval io ry_rest in
        let z_at_ry =
          Gf.add (Gf.mul (Gf.sub Gf.one ry.(0)) rep.vw) (Gf.mul ry.(0) io_eval)
        in
        let* () =
          if Gf.equal (Gf.mul m_at_ry z_at_ry) v2.Sumcheck.value then Ok ()
          else E.errorf E.Sumcheck_mismatch "rep %d: sumcheck-2 final claim mismatch" k
        in
        (* PCS opening of w~ at ry_rest. *)
        let* () =
          P.verify ~engine params.pcs proof.w_commitment transcript ry_rest rep.vw
            rep.w_open
        in
        Transcript.absorb_gf transcript "vw" [| rep.vw |];
        check_rep (k + 1)
      end
    in
    check_rep 0

  let proof_size_bytes params proof =
    let field = 8 and digest = 32 in
    let rep_bytes rep =
      Sumcheck.proof_size_bytes rep.sc1 + (3 * field) + Sumcheck.proof_size_bytes rep.sc2
      + field
      + P.proof_size_bytes params.pcs proof.w_commitment rep.w_open
    in
    digest + Array.fold_left (fun acc r -> acc + rep_bytes r) 0 proof.reps

  (* --- serialization: NCAP2 header + backend tag byte, then the same
     payload layout the pre-functor Serialize module wrote --- *)

  let magic = magic

  let proof_to_bytes (p : proof) =
    (* The buffer starts at the proof's size, so it is allocated once
       rather than grown by doubling from a small start: the dropped
       buffers of that chain went to the major heap on every proof and
       raised peak RSS. The size is the payload estimate plus 1/8 for the
       length prefixes it leaves out (they add 1-6% on the shipped
       circuits). Both backends size an opening from the proof alone, so
       the default params serve; a short estimate only costs a regrow. *)
    let payload =
      proof_size_bytes { pcs = P.default_params; repetitions = Array.length p.reps } p
    in
    let buf = Buffer.create (payload + (payload / 8) + 256) in
    Buffer.add_string buf magic;
    Codec.put_byte buf P.tag;
    P.write_commitment buf p.w_commitment;
    Codec.put_int buf (Array.length p.reps);
    Array.iter
      (fun r ->
        Sumcheck.write_proof buf r.sc1;
        Codec.put_gf buf r.va;
        Codec.put_gf buf r.vb;
        Codec.put_gf buf r.vc;
        Sumcheck.write_proof buf r.sc2;
        Codec.put_gf buf r.vw;
        P.write_eval_proof buf r.w_open)
      p.reps;
    Buffer.to_bytes buf

  let serialized_size p = Bytes.length (proof_to_bytes p)

  let proof_of_bytes data =
    let ( let* ) = Result.bind in
    let r = Codec.reader data in
    match Codec.expect_string r magic with
    | Error _ -> (
      match Codec.expect_string r legacy_magic with
      | Ok () ->
        E.error E.Bad_header
          "legacy NCAP1 proof blob (no backend tag); re-serialize it with the \
           current version"
      | Error _ -> E.error E.Bad_header "bad magic")
    | Ok () ->
      let* t = Codec.get_byte r in
      if not (Char.equal t P.tag) then
        (match backend_name_of_tag t with
        | Some b ->
          E.errorf E.Bad_header
            "backend mismatch: proof blob carries backend %S (tag 0x%02x), this \
             decoder is %S"
            b (Char.code t) P.name
        | None -> E.errorf E.Bad_header "unknown backend tag 0x%02x" (Char.code t))
      else
        let* w_commitment = P.read_commitment r in
        let* reps =
          Codec.get_array r (fun r ->
              let* sc1 = Sumcheck.read_proof r in
              let* va = Codec.get_gf r in
              let* vb = Codec.get_gf r in
              let* vc = Codec.get_gf r in
              let* sc2 = Sumcheck.read_proof r in
              let* vw = Codec.get_gf r in
              let* w_open = P.read_eval_proof r in
              Ok { sc1; va; vb; vc; sc2; vw; w_open })
        in
        let* () = Codec.expect_end r in
        Ok { w_commitment; reps }
end

include Make (Zk_orion.Orion_pcs)
