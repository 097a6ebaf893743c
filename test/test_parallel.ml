(* Parallel runtime tests: pool torture (nesting, exceptions, degenerate
   sizes, work-stealing under skew, park/unpark races) plus QCheck
   parallel/serial equivalence — every converted hot path must produce
   byte-identical results for domain counts 1, 2, and N, and for every
   grain including ones larger than the whole range. *)

module Pool = Nocap_parallel.Pool
module Fv = Nocap_vec.Fv
module Gf = Zk_field.Gf
module Keccak = Zk_hash.Keccak
module Transcript = Zk_hash.Transcript
module Merkle = Zk_merkle.Merkle
module Ntt = Zk_ntt.Ntt.Gf_ntt
module Reed_solomon = Zk_ecc.Reed_solomon
module Expander = Zk_ecc.Expander
module Sumcheck = Zk_sumcheck.Sumcheck
module Orion = Zk_orion.Orion
module Msm = Zk_curve.Msm
module G1 = Zk_curve.G1
module Fr = Zk_field.Fr_bls
module Rng = Zk_util.Rng

(* Domain counts every equivalence property sweeps. The machine may have
   any core count; correctness must not depend on it. *)
let domain_counts = [ 1; 2; 3 ]

let with_each_domain_count f = List.map (fun d -> Pool.with_domains d (fun () -> f d)) domain_counts

(* --- pool torture ------------------------------------------------------- *)

let test_degenerate () =
  Pool.with_domains 3 (fun () ->
      Pool.parallel_for ~n:0 (fun _ -> failwith "must not run");
      Pool.run ~n:(-5) (fun _ _ -> failwith "must not run");
      Alcotest.(check (array int)) "init 0" [||] (Pool.parallel_init 0 (fun i -> i));
      Alcotest.(check (array int)) "init 1" [| 7 |] (Pool.parallel_init 1 (fun _ -> 7));
      let hits = ref 0 in
      Pool.parallel_for ~grain:1 ~n:1 (fun _ -> incr hits);
      Alcotest.(check int) "size-1 input runs once" 1 !hits)

let test_init_matches_serial () =
  let expected = Array.init 1000 (fun i -> (i * i) + 3) in
  with_each_domain_count (fun _ ->
      Pool.parallel_init ~grain:1 1000 (fun i -> (i * i) + 3))
  |> List.iter (fun got -> Alcotest.(check (array int)) "parallel_init" expected got)

let test_nested () =
  Pool.with_domains 3 (fun () ->
      let got =
        Pool.parallel_init ~grain:1 16 (fun i ->
            (* Nested submission from inside a worker must run serially and
               still be correct. *)
            let inner = Pool.parallel_init ~grain:1 8 (fun j -> (i * 8) + j) in
            Array.fold_left ( + ) 0 inner)
      in
      let expected = Array.init 16 (fun i -> Array.fold_left ( + ) 0 (Array.init 8 (fun j -> (i * 8) + j))) in
      Alcotest.(check (array int)) "nested" expected got)

exception Boom of int

let test_exception_propagation () =
  Pool.with_domains 3 (fun () ->
      (match Pool.parallel_for ~grain:1 ~n:100 (fun i -> if i = 57 then raise (Boom i)) with
      | () -> Alcotest.fail "expected exception"
      | exception Boom 57 -> ()
      | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e));
      (* The pool must stay usable after a failed task. *)
      let a = Pool.parallel_init ~grain:1 64 (fun i -> 2 * i) in
      Alcotest.(check (array int)) "pool alive after exn" (Array.init 64 (fun i -> 2 * i)) a)

(* Every index raises while stealing is active (grain 1 over many indices
   forces workers to trade chunks): the caller must still see exactly one
   exception (with its backtrace preserved), and the pool must not wedge —
   subsequent submissions run on all workers. *)
let test_exception_storm_surfaces_once () =
  let prev = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect
    ~finally:(fun () -> Printexc.record_backtrace prev)
    (fun () ->
      Pool.with_domains 3 (fun () ->
          let surfaced = ref 0 in
          (match Pool.parallel_for ~grain:1 ~n:64 (fun i -> raise (Boom i)) with
          | () -> Alcotest.fail "expected exception"
          | exception Boom _ ->
            incr surfaced;
            let bt = Printexc.get_raw_backtrace () in
            Alcotest.(check bool)
              "backtrace preserved across the pool boundary" true
              (Printexc.raw_backtrace_length bt > 0)
          | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e));
          Alcotest.(check int) "exactly one exception surfaced" 1 !surfaced;
          let a = Pool.parallel_init ~grain:1 128 (fun i -> i + 1) in
          Alcotest.(check (array int))
            "pool alive after exception storm"
            (Array.init 128 (fun i -> i + 1))
            a))

let test_fold_chunks () =
  List.iter
    (fun chunk ->
      with_each_domain_count (fun _ ->
          Pool.fold_chunks ~chunk ~grain:1 ~n:1000 ~init:0
            ~body:(fun lo hi ->
              let s = ref 0 in
              for i = lo to hi - 1 do
                s := !s + i
              done;
              !s)
            ~combine:( + ) ())
      |> List.iter (fun got -> Alcotest.(check int) "fold sum" (1000 * 999 / 2) got))
    [ 1; 7; 64; 1000; 4096 ]

let test_with_domains_restores () =
  let before = Pool.default_domains () in
  (try Pool.with_domains 2 (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "default restored after exn" before (Pool.default_domains ())

(* Park/unpark races: with the spin budget forced to zero every worker
   parks the instant it runs out of work, so back-to-back submissions
   exercise the epoch/parked handshake hundreds of times. A missed wakeup
   here shows up as a hang (alcotest timeout) or a lost index. *)
let test_park_unpark_races () =
  let prev = Pool.spin_us () in
  Pool.set_spin_us 0;
  Fun.protect
    ~finally:(fun () -> Pool.set_spin_us prev)
    (fun () ->
      Pool.with_domains 4 (fun () ->
          for round = 1 to 300 do
            let n = 1 + (round mod 97) in
            let hits = Array.make n 0 in
            Pool.parallel_for ~grain:1 ~n (fun i ->
                hits.(i) <- hits.(i) + 1);
            Array.iteri
              (fun i h ->
                if h <> 1 then
                  Alcotest.failf "round %d: index %d ran %d times" round i h)
              hits
          done))

(* Work-stealing under skew: a few indices carry almost all the work, so a
   static split strands most of it on one worker and only stealing can
   rebalance. Every index must run exactly once regardless. *)
let test_stealing_skewed_work () =
  Pool.with_domains 4 (fun () ->
      let n = 256 in
      let hits = Array.make n 0 in
      let sink = ref 0 in
      Pool.parallel_for ~grain:1 ~n (fun i ->
          hits.(i) <- hits.(i) + 1;
          (* Indices 0..3 busy-loop ~1000x longer than the rest. *)
          let iters = if i < 4 then 100_000 else 100 in
          let acc = ref 0 in
          for k = 1 to iters do
            acc := !acc + (k land 7)
          done;
          sink := !sink + (!acc land 1));
      Array.iteri
        (fun i h -> if h <> 1 then Alcotest.failf "skew: index %d ran %d times" i h)
        hits)

(* QCheck stealing torture: random n (including 0 and 1), random grain
   (including grains larger than n, which must hit the serial fallback),
   random per-index work skew, random domain count. Coverage is checked
   with per-index counters — exactly-once execution is the whole
   correctness contract of the deque/steal protocol. *)
let qcheck ?(count = 10) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let qcheck_stealing_torture =
  qcheck ~count:40 "work-stealing covers every index exactly once"
    QCheck.(
      make
        Gen.(
          quad (int_range 0 700) (int_range 1 2000) (int_range 1 4)
            (int_range 0 1000)))
    (fun (n, grain, domains, seed) ->
      Pool.with_domains domains (fun () ->
          let hits = Array.make (max 1 n) 0 in
          let sink = ref 0 in
          Pool.parallel_for ~grain ~n (fun i ->
              hits.(i) <- hits.(i) + 1;
              (* Deterministic skew derived from the seed: some indices are
                 ~100x heavier, forcing thieves onto slow victims. *)
              let iters = if (i + seed) mod 13 = 0 then 5_000 else 50 in
              let acc = ref 0 in
              for k = 1 to iters do
                acc := !acc + (k land 3)
              done;
              sink := !sink + (!acc land 1));
          let ok = ref true in
          for i = 0 to n - 1 do
            if hits.(i) <> 1 then ok := false
          done;
          !ok))

(* Grain property: for any grain (1 .. far beyond n, where the serial
   crossover kicks in) the observable result is identical. Uses a
   value-producing kernel (parallel_init) so a dropped or doubled index
   changes bytes, not just counts. *)
let qcheck_grain_equivalence =
  qcheck ~count:40 "results identical for every grain incl. serial fallback"
    QCheck.(make Gen.(triple (int_range 0 500) (int_range 1 4000) (int_range 1 4)))
    (fun (n, grain, domains) ->
      let expected = Array.init n (fun i -> (i * 31) lxor (i lsr 2)) in
      let got =
        Pool.with_domains domains (fun () ->
            Pool.parallel_init ~grain n (fun i -> (i * 31) lxor (i lsr 2)))
      in
      got = expected)

(* --- parallel/serial equivalence (QCheck) ------------------------------ *)

let gf_array_gen log_n =
  QCheck.Gen.(
    map
      (fun seed ->
        let rng = Rng.create (Int64.of_int seed) in
        Array.init (1 lsl log_n) (fun _ -> Gf.random rng))
      int)

let qcheck_merkle =
  qcheck "merkle roots identical across domain counts"
    QCheck.(make Gen.(pair (int_range 1 200) int))
    (fun (n, seed) ->
      let rng = Rng.create (Int64.of_int seed) in
      let leaves =
        Array.init n (fun _ -> Keccak.sha3_256_string (Int64.to_string (Rng.next rng)))
      in
      let serial = Merkle_oracle.root (Merkle_oracle.build leaves) in
      with_each_domain_count (fun _ -> Merkle.root (Merkle.build (Merkle.of_digests leaves)))
      |> List.for_all (String.equal serial))

(* Column leaves of one flat matrix, hashed by pool workers in groups of
   the Keccak kernel width ([Keccak.hash_cols_into], the Orion commit's
   leaf pass), against one serial sponge per column. Widths past several
   pool chunks, with every group tail. *)
let qcheck_merkle_leaves =
  qcheck "merkle leaves identical across domain counts"
    QCheck.(make Gen.(triple (int_range 1 40) (int_range 1 700) int))
    (fun (rows, cols, seed) ->
      let rng = Rng.create (Int64.of_int seed) in
      let flat = Array.init (rows * cols) (fun _ -> Gf.random rng) in
      let serial =
        Array.init cols (fun j ->
            Merkle.leaf_of_column (Array.init rows (fun r -> flat.((r * cols) + j))))
      in
      let m = Fv.of_array flat in
      with_each_domain_count (fun _ ->
          let leaves = Merkle.leaves_of_matrix ~rows ~cols m in
          Array.init cols (Keccak.digest_at leaves))
      |> List.for_all (( = ) serial))

let qcheck_four_step =
  qcheck "four-step NTT = flat NTT across domain counts"
    QCheck.(make (gf_array_gen 8))
    (fun a ->
      let flat = Ntt.forward_copy (Ntt.plan 256) a in
      with_each_domain_count (fun _ ->
          Fv.to_array (Ntt_oracle.four_step_forward_fv ~rows:16 ~cols:16 (Fv.of_array a)))
      |> List.for_all (( = ) flat))

(* Rows encoded by pool workers, as Orion's commit runs them (grain 1, so
   every row may land on another domain and its arena), against the boxed
   oracle. *)
let qcheck_codes =
  qcheck "codewords identical across domain counts"
    QCheck.(make (gf_array_gen 8))
    (fun flat ->
      let rows = 4 and cols = 64 in
      List.for_all
        (fun ((module Code : Zk_ecc.Linear_code.S)) ->
          let code_len = Code.blowup * cols in
          let serial =
            Array.concat
              (List.init rows (fun r ->
                   Ecc_oracle.encode (module Code) (Array.sub flat (r * cols) cols)))
          in
          let src = Fv.of_array flat in
          with_each_domain_count (fun _ ->
              let dst = Fv.create (rows * code_len) in
              Pool.parallel_for ~grain:1 ~n:rows (fun r ->
                  Code.encode_row_into
                    ~src:(Fv.sub_view src ~pos:(r * cols) ~len:cols)
                    ~dst:(Fv.sub_view dst ~pos:(r * code_len) ~len:code_len));
              Fv.to_array dst)
          |> List.for_all (( = ) serial))
        [ (module Reed_solomon); (module Expander) ])


let qcheck_sumcheck =
  qcheck "sumcheck transcripts identical across domain counts"
    QCheck.(make (gf_array_gen 8))
    (fun flat ->
      let tables = Array.init 4 (fun j -> Array.sub flat (j * 64) 64) in
      let claim =
        let acc = ref Gf.zero in
        for b = 0 to 63 do
          acc := Gf.add !acc (Sumcheck_oracle.spartan_comb_scalar (Array.map (fun t -> t.(b)) tables))
        done;
        !acc
      in
      let run () =
        let t = Transcript.create "test-parallel" in
        let r =
          Sumcheck.prove ~comb_mults:2 t ~degree:3 ~tables:(Sumcheck_oracle.spills tables)
            ~comb:Sumcheck.spartan_comb ~claim
        in
        (* The post-proof challenge pins the entire transcript state. *)
        (r.Sumcheck.proof, r.Sumcheck.challenges, r.Sumcheck.final_values,
         Transcript.challenge_gf t "final")
      in
      let serial = Pool.with_domains 1 run in
      with_each_domain_count (fun _ -> run ()) |> List.for_all (( = ) serial))

let orion_params =
  { Orion.rows = 16; code = (module Reed_solomon); proximity_count = 2; zk = true }

let qcheck_orion =
  qcheck ~count:5 "orion proofs identical across domain counts"
    QCheck.(make Gen.(pair (gf_array_gen 8) int))
    (fun (table, seed) ->
      let run () =
        let rng = Rng.create (Int64.of_int seed) in
        let committed, cm = Orion.commit orion_params rng table in
        let t = Transcript.create "test-parallel-orion" in
        Orion.absorb_commitment t cm;
        let point = Transcript.challenge_gf_vec t "point" cm.Orion.num_vars in
        let value, proof = Orion.prove_eval orion_params committed t point in
        (cm, value, proof)
      in
      let serial = Pool.with_domains 1 run in
      let ok = with_each_domain_count (fun _ -> run ()) |> List.for_all (( = ) serial) in
      (* And the proof must still verify. *)
      let cm, value, proof = serial in
      let t = Transcript.create "test-parallel-orion" in
      Orion.absorb_commitment t cm;
      let point = Transcript.challenge_gf_vec t "point" cm.Orion.num_vars in
      ok
      && Result.is_ok (Orion.verify_eval orion_params cm t point value proof))

let qcheck_msm =
  qcheck ~count:5 "pippenger identical across domain counts"
    QCheck.(make Gen.int)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let n = 16 + Rng.int rng 17 in
      let scalars = Array.init n (fun _ -> Fr.random rng) in
      let points = Array.init n (fun _ -> G1.random rng) in
      let serial = Msm_oracle.pippenger_serial scalars points in
      G1.equal serial (Msm.naive scalars points)
      && with_each_domain_count (fun _ -> Msm.pippenger scalars points)
         |> List.for_all (G1.equal serial))

let suite =
  [
    Alcotest.test_case "degenerate inputs" `Quick test_degenerate;
    Alcotest.test_case "parallel_init matches serial" `Quick test_init_matches_serial;
    Alcotest.test_case "nested submissions" `Quick test_nested;
    Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
    Alcotest.test_case "exception storm surfaces once" `Quick
      test_exception_storm_surfaces_once;
    Alcotest.test_case "fold_chunks determinism" `Quick test_fold_chunks;
    Alcotest.test_case "with_domains restores" `Quick test_with_domains_restores;
    Alcotest.test_case "park/unpark races under repeated submit" `Quick
      test_park_unpark_races;
    Alcotest.test_case "stealing rebalances skewed work" `Quick
      test_stealing_skewed_work;
    qcheck_stealing_torture;
    qcheck_grain_equivalence;
    qcheck_merkle;
    qcheck_merkle_leaves;
    qcheck_four_step;
    qcheck_codes;
    qcheck_sumcheck;
    qcheck_orion;
    qcheck_msm;
  ]
