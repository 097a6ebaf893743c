module Gf = Zk_field.Gf
module Transcript = Zk_hash.Transcript
module Keccak = Zk_hash.Keccak
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

let instance_digest (inst : R1cs.instance) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "r1cs:%d:" inst.R1cs.log_size);
  let add_matrix tag m =
    Buffer.add_string buf tag;
    Seq.iter
      (fun (r, c, v) ->
        let b = Bytes.create 24 in
        Bytes.set_int64_le b 0 (Int64.of_int r);
        Bytes.set_int64_le b 8 (Int64.of_int c);
        Bytes.set_int64_le b 16 (Gf.to_int64 v);
        Buffer.add_bytes buf b)
      (Sparse.entries m)
  in
  add_matrix "A" inst.R1cs.a;
  add_matrix "B" inst.R1cs.b;
  add_matrix "C" inst.R1cs.c;
  Keccak.sha3_256 (Buffer.to_bytes buf)

(* The multilinear extension of the io half at a point over (L-1) variables,
   computed from the live io prefix only (everything else is zero). *)
let io_mle_eval io_live point =
  let eq = Mle.eq_table point in
  let acc = ref Gf.zero in
  Array.iteri (fun j v -> acc := Gf.add !acc (Gf.mul v eq.(j))) io_live;
  !acc

(* comb for sumcheck #1: eq * (az * bz - cz), degree 3. *)
let comb1 v = Gf.mul v.(0) (Gf.sub (Gf.mul v.(1) v.(2)) v.(3))

(* comb for sumcheck #2: m * z, degree 2. *)
let comb2 v = Gf.mul v.(0) v.(1)

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
     vector is RAM-backed; under a budget, blocks are budget-sized and the
     vectors live in spill files. Transcript traffic, RNG draws and
     arithmetic are the same either way, so the proof bytes are too. The
     only full-length residents are the caller-owned assignment and the
     flat 8-byte/element wire vector z. *)
  let prove ?engine ?rng params inst asn =
    let engine = Engine.resolve engine in
    let rng = Engine.rng ~seed:0x5EED_CAFEL ?rng engine in
    let budget = Engine.stream_budget_bytes engine in
    let spill = Option.is_some budget in
    let l = inst.R1cs.log_size in
    let n = R1cs.size inst in
    let block = match budget with None -> n | Some b -> max 1024 (b / (8 * 8)) in
    (* z as a flat vector (validates the assignment shape like R1cs.z). *)
    let zfv = Fv.create n in
    R1cs.iter_z_blocks inst asn ~block (fun ~pos slice ->
        Fv.write_array slice ~src_pos:0 zfv ~dst_pos:pos ~len:(Array.length slice));
    (* SpMV reads z out of the assignment's own boxed halves (no
       per-entry boxing of an [Fv] read). *)
    let half = n / 2 in
    let zf j = if j < half then asn.R1cs.w.(j) else asn.R1cs.io.(j - half) in
    (* Row-blocked Az/Bz/Cz: each block is checked for satisfiability and
       stored; under a budget the three dense vectors never coexist in
       RAM. Raises before any commitment work. *)
    let az = Spill.create ~tag:"spartan-az" ~spill n in
    let bz = Spill.create ~tag:"spartan-bz" ~spill n in
    let cz = Spill.create ~tag:"spartan-cz" ~spill n in
    (* Every exit — success, unsatisfiable assignment, cancellation, an
       injected I/O fault — releases the spilled vectors deterministically;
       Spill.free is idempotent so this composes with the normal-path
       frees below. *)
    Fun.protect
      ~finally:(fun () ->
        Spill.free az;
        Spill.free bz;
        Spill.free cz)
    @@ fun () ->
    let r = ref 0 in
    while !r < n do
      Pool.Cancel.check ();
      let hi = min n (!r + block) in
      let ab = Sparse.spmv_range inst.R1cs.a ~x:zf ~r_lo:!r ~r_hi:hi in
      let bb = Sparse.spmv_range inst.R1cs.b ~x:zf ~r_lo:!r ~r_hi:hi in
      let cb = Sparse.spmv_range inst.R1cs.c ~x:zf ~r_lo:!r ~r_hi:hi in
      for i = 0 to hi - !r - 1 do
        if not (Gf.equal (Gf.mul ab.(i) bb.(i)) cb.(i)) then
          invalid_arg "Spartan.prove: assignment does not satisfy the instance"
      done;
      Spill.write_array az ~pos:!r ab;
      Spill.write_array bz ~pos:!r bb;
      Spill.write_array cz ~pos:!r cb;
      r := hi
    done;
    let transcript = start_transcript params inst (R1cs.public_io inst asn) in
    (* Commit to the witness half; the engine budget sizes the backend's
       blocks the same way. *)
    let committed, w_commitment = P.commit ~engine params.pcs rng asn.R1cs.w in
    Fun.protect ~finally:(fun () -> P.free_committed committed) @@ fun () ->
    P.absorb_commitment transcript w_commitment;
    let spmv_mults = ref (R1cs.nnz inst) in
    let sc_mults = ref 0 and sc_adds = ref 0 in
    let z_spill = Spill.of_fv zfv in
    (* Eq table generated block-by-block via the aligned-range
       factorization (bit-identical to Mle.eq_table). *)
    let spill_eq tag point =
      let len = 1 lsl Array.length point in
      let s = Spill.create ~tag ~spill len in
      let eb =
        let b = min block len in
        let p = ref 1 in
        while !p * 2 <= b do
          p := !p * 2
        done;
        !p
      in
      let pos = ref 0 in
      (try
         while !pos < len do
           Pool.Cancel.check ();
           Spill.write_array s ~pos:!pos (Mle.eq_table_range point ~lo:!pos ~len:eb);
           pos := !pos + eb
         done
       with e ->
         Spill.free s;
         raise e);
      s
    in
    let reps =
      Array.init params.repetitions (fun _ ->
          (* --- Sumcheck #1 --- *)
          let tau = Transcript.challenge_gf_vec transcript "tau" l in
          let eq_tau = spill_eq "spartan-eqtau" tau in
          let r1 =
            Fun.protect ~finally:(fun () -> Spill.free eq_tau) @@ fun () ->
            Sumcheck.prove_streaming ~engine ~comb_mults:2 ?budget_bytes:budget transcript
              ~degree:3
              ~tables:[| eq_tau; az; bz; cz |]
              ~comb:comb1 ~claim:Gf.zero
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
          let claim2 =
            Gf.add
              (Gf.mul r_abc.(0) va)
              (Gf.add (Gf.mul r_abc.(1) vb) (Gf.mul r_abc.(2) vc))
          in
          let eq_rx = spill_eq "spartan-eqrx" rx in
          (* Column-blocked M~ table: the transpose SpMV scans the matrices
             once per window (window-sized accumulator), reading eq_rx
             through a sliding spill window. *)
          let m_table = Spill.create ~tag:"spartan-m" ~spill n in
          let r2 =
            Fun.protect
              ~finally:(fun () ->
                Spill.free eq_rx;
                Spill.free m_table)
            @@ fun () ->
            let reader = Spill.Reader.create eq_rx in
            let y r = Spill.Reader.get reader r in
            let c = ref 0 in
            while !c < n do
              Pool.Cancel.check ();
              let hi = min n (!c + block) in
              let ta = Sparse.spmv_transpose_range inst.R1cs.a ~y ~c_lo:!c ~c_hi:hi in
              let tb = Sparse.spmv_transpose_range inst.R1cs.b ~y ~c_lo:!c ~c_hi:hi in
              let tc = Sparse.spmv_transpose_range inst.R1cs.c ~y ~c_lo:!c ~c_hi:hi in
              for i = 0 to hi - !c - 1 do
                ta.(i) <-
                  Gf.add
                    (Gf.mul r_abc.(0) ta.(i))
                    (Gf.add (Gf.mul r_abc.(1) tb.(i)) (Gf.mul r_abc.(2) tc.(i)))
              done;
              Spill.write_array m_table ~pos:!c ta;
              c := hi
            done;
            spmv_mults := !spmv_mults + R1cs.nnz inst;
            (* eq_rx is only needed to build M~; free it before the second
               sumcheck so the two never coexist (the finally re-free is an
               idempotent no-op). *)
            Spill.free eq_rx;
            Sumcheck.prove_streaming ~engine ~comb_mults:1 ?budget_bytes:budget transcript
              ~degree:2
              ~tables:[| m_table; z_spill |]
              ~comb:comb2 ~claim:claim2
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
    P.free_committed committed;
    Spill.free az;
    Spill.free bz;
    Spill.free cz;
    let stats : prover_stats =
      {
        sumcheck_mults = !sc_mults;
        sumcheck_adds = !sc_adds;
        spmv_mults = !spmv_mults;
        transcript_hashes = Transcript.hash_count transcript;
      }
    in
    Engine.emit engine "spartan/sumcheck_mults" (float_of_int stats.sumcheck_mults);
    Engine.emit engine "spartan/spmv_mults" (float_of_int stats.spmv_mults);
    Engine.emit engine "spartan/transcript_hashes"
      (float_of_int stats.transcript_hashes);
    Engine.finish_entry engine;
    ({ w_commitment; reps }, stats)

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
        let row_eq = Mle.eq_table rx and col_eq = Mle.eq_table ry in
        let ma = Sparse.mle_eval inst.R1cs.a ~row_eq ~col_eq in
        let mb = Sparse.mle_eval inst.R1cs.b ~row_eq ~col_eq in
        let mc = Sparse.mle_eval inst.R1cs.c ~row_eq ~col_eq in
        let m_at_ry =
          Gf.add
            (Gf.mul r_abc.(0) ma)
            (Gf.add (Gf.mul r_abc.(1) mb) (Gf.mul r_abc.(2) mc))
        in
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
    let result = check_rep 0 in
    Engine.finish_entry engine;
    result

  let proof_size_bytes params proof =
    let field = 8 and digest = 32 in
    let sumcheck_bytes (p : Sumcheck.proof) =
      Array.fold_left
        (fun acc g -> acc + (field * Array.length g))
        0 p.Sumcheck.round_polys
    in
    let rep_bytes rep =
      sumcheck_bytes rep.sc1 + (3 * field) + sumcheck_bytes rep.sc2 + field
      + P.proof_size_bytes params.pcs proof.w_commitment rep.w_open
    in
    digest + Array.fold_left (fun acc r -> acc + rep_bytes r) 0 proof.reps

  (* --- serialization: NCAP2 header + backend tag byte, then the same
     payload layout the pre-functor Serialize module wrote --- *)

  let magic = magic

  let put_sumcheck buf (p : Sumcheck.proof) =
    Codec.put_int buf (Array.length p.Sumcheck.round_polys);
    Array.iter (Codec.put_gf_array buf) p.Sumcheck.round_polys

  let get_sumcheck r =
    let ( let* ) = Result.bind in
    let* round_polys = Codec.get_array r Codec.get_gf_array in
    Ok { Sumcheck.round_polys }

  let proof_to_bytes (p : proof) =
    let buf = Buffer.create 65536 in
    Buffer.add_string buf magic;
    Codec.put_byte buf P.tag;
    P.write_commitment buf p.w_commitment;
    Codec.put_int buf (Array.length p.reps);
    Array.iter
      (fun r ->
        put_sumcheck buf r.sc1;
        Codec.put_gf buf r.va;
        Codec.put_gf buf r.vb;
        Codec.put_gf buf r.vc;
        put_sumcheck buf r.sc2;
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
              let* sc1 = get_sumcheck r in
              let* va = Codec.get_gf r in
              let* vb = Codec.get_gf r in
              let* vc = Codec.get_gf r in
              let* sc2 = get_sumcheck r in
              let* vw = Codec.get_gf r in
              let* w_open = P.read_eval_proof r in
              Ok { sc1; va; vb; vc; sc2; vw; w_open })
        in
        let* () = Codec.expect_end r in
        Ok { w_commitment; reps }
end

include Make (Zk_orion.Orion_pcs)
