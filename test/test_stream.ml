(* The one prover path pinned across stream budgets.

   There is a single prover at every layer; the engine's stream budget
   only picks the block size and whether vectors live in RAM or in spill
   files. Every component — spill files, blocked eq tables, blocked SpMV,
   the flat witness vector, the incremental Merkle builder, the
   recompute-halves sumcheck, the PCS commits/openings, and the end-to-end
   Spartan pipeline — must be *byte-identical* for every budget and equal
   to its reference oracle: Goldilocks ops are exact and canonical, so any
   algebraically equal evaluation order yields the same bits, the same
   transcripts, the same proofs. The Spartan budget sweep covers domain
   counts 1/2/3 and the scalar C kernel tier beside the best one. *)

module Gf = Zk_field.Gf
module Fv = Nocap_vec.Fv
module Spill = Nocap_vec.Spill
module Mle = Zk_poly.Mle
module Sparse = Zk_r1cs.Sparse
module R1cs = Zk_r1cs.R1cs
module Merkle = Zk_merkle.Merkle
module Sumcheck = Zk_sumcheck.Sumcheck
module Engine = Zk_pcs.Engine
module Transcript = Zk_hash.Transcript
module Orion = Zk_orion.Orion
module Fri_pcs = Zk_orion.Fri_pcs
module Pool = Nocap_parallel.Pool
module Rng = Zk_util.Rng
module Builder = Zk_r1cs.Builder
module Gadgets = Zk_r1cs.Gadgets
module Spartan = Zk_spartan.Spartan
module Spartan_fri = Zk_spartan.Spartan.Make (Zk_orion.Fri_pcs)

let qcheck ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let gf_of_rng rng = Gf.of_int64 (Rng.next rng)
let random_gf_array rng n = Array.init n (fun _ -> gf_of_rng rng)

let check_gf_array msg a b =
  Alcotest.(check int) (msg ^ ": length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if not (Gf.equal x b.(i)) then Alcotest.failf "%s: element %d differs" msg i)
    a

(* --- Spill files -------------------------------------------------------- *)

let test_spill_roundtrip () =
  let before = Spill.live_files () in
  List.iter
    (fun n ->
      let rng = Rng.create (Int64.of_int (n + 7)) in
      let data = random_gf_array rng n in
      let s = Spill.create ~tag:"test" ~spill:true n in
      Alcotest.(check bool) "spilled" true (Spill.is_spilled s);
      (* write in ragged chunks *)
      let pos = ref 0 in
      let step = ref 3 in
      while !pos < n do
        let len = min !step (n - !pos) in
        Spill.write s ~pos:!pos (Fv.of_array (Array.sub data !pos len));
        pos := !pos + len;
        step := 1 + ((!step * 2) mod 11)
      done;
      (* blocked read-back *)
      let buf = Fv.create (min 5 n) in
      let pos = ref 0 in
      while !pos < n do
        let len = min (Fv.length buf) (n - !pos) in
        let v = Fv.sub_view buf ~pos:0 ~len in
        Spill.read s ~pos:!pos v;
        for i = 0 to len - 1 do
          if not (Gf.equal (Fv.get v i) data.(!pos + i)) then
            Alcotest.failf "n=%d: read mismatch at %d" n (!pos + i)
        done;
        pos := !pos + len
      done;
      (* point reads *)
      List.iter
        (fun i ->
          if i < n && not (Gf.equal (Spill.get s i) data.(i)) then
            Alcotest.failf "n=%d: point get mismatch at %d" n i)
        [ 0; 1; n / 2; n - 1 ];
      (* a spilled vector has no in-RAM view *)
      (try
         ignore (Spill.as_fv s);
         Alcotest.fail "as_fv on a spilled vector should raise"
       with Invalid_argument _ -> ());
      check_gf_array (Printf.sprintf "to_fv n=%d" n) data (Fv.to_array (Spill.to_fv s));
      Spill.free s;
      Spill.free s (* idempotent *))
    [ 1; 7; 64; 1000 ];
  Alcotest.(check int) "all spill files released" before (Spill.live_files ())

let test_spill_ram_backing () =
  let rng = Rng.create 11L in
  let data = random_gf_array rng 33 in
  let s = Spill.create ~tag:"ram" ~spill:false 33 in
  Alcotest.(check bool) "not spilled" false (Spill.is_spilled s);
  Spill.write s ~pos:0 (Fv.of_array data);
  check_gf_array "ram as_fv" data (Fv.to_array (Spill.as_fv s));
  let wrapped = Spill.of_fv (Fv.of_array data) in
  check_gf_array "of_fv" data (Fv.to_array (Spill.to_fv wrapped));
  Spill.free s

let test_spill_view () =
  let n = 513 in
  let rng = Rng.create 42L in
  let data = random_gf_array rng n in
  let buf = Fv.create 32 in
  List.iter
    (fun spill ->
      let s = Spill.create ~tag:"view" ~spill n in
      Spill.write s ~pos:0 (Fv.of_array data);
      let probe pos len =
        check_gf_array
          (Printf.sprintf "view %d+%d (spilled %b)" pos len spill)
          (Array.sub data pos len)
          (Fv.to_array (Spill.view s ~pos ~len ~buf))
      in
      (* buffer-sized blocks with a ragged tail, then blocks across their
         edges, single elements at both ends and an empty block *)
      let pos = ref 0 in
      while !pos < n do
        let len = min 32 (n - !pos) in
        probe !pos len;
        pos := !pos + len
      done;
      List.iter
        (fun (pos, len) -> probe pos len)
        [ (31, 2); (500, 13); (0, 1); (n - 1, 1); (256, 0) ];
      Spill.free s)
    [ false; true ]

let test_spill_bounds () =
  let s = Spill.create ~tag:"bounds" ~spill:true 8 in
  let buf = Fv.create 4 in
  (try
     Spill.read s ~pos:6 buf;
     Alcotest.fail "out-of-range read should raise"
   with Invalid_argument _ -> ());
  (try
     Spill.write s ~pos:(-1) buf;
     Alcotest.fail "negative write should raise"
   with Invalid_argument _ -> ());
  Spill.free s

(* --- blocked eq tables -------------------------------------------------- *)

let prop_eq_table_into =
  qcheck ~count:60 "eq_table_into = eq_table slice"
    QCheck.(pair (int_range 0 8) small_int)
    (fun (l, seed) ->
      let rng = Rng.create (Int64.of_int (succ seed)) in
      let point = random_gf_array rng l in
      let n = 1 lsl l in
      (* the closed form, independent of the doubling chain *)
      let full = Array.init n (fun b -> Mle.eq_point point (Mle_oracle.eval_of_index l b)) in
      (* every aligned power-of-two block size *)
      let ok = ref true in
      let len = ref 1 in
      while !len <= n do
        let lo = ref 0 in
        while !lo < n do
          let part = Fv.create !len in
          Mle.eq_table_into point ~lo:!lo part;
          for i = 0 to !len - 1 do
            if not (Gf.equal (Fv.get part i) full.(!lo + i)) then ok := false
          done;
          lo := !lo + !len
        done;
        len := !len * 2
      done;
      !ok)

(* --- ranged SpMV -------------------------------------------------------- *)

let random_sparse rng ~nrows ~ncols ~per_row =
  let entries = ref [] in
  for r = 0 to nrows - 1 do
    for _ = 1 to 1 + Rng.int rng per_row do
      entries := (r, Rng.int rng ncols, gf_of_rng rng) :: !entries
    done
  done;
  Sparse.of_entries ~nrows ~ncols !entries

let test_spmv_ranges () =
  let rng = Rng.create 77L in
  let m = random_sparse rng ~nrows:37 ~ncols:29 ~per_row:4 in
  let x = random_gf_array rng 29 in
  let y = random_gf_array rng 37 in
  let full = Sparse_oracle.spmv m x in
  let fullt = Sparse_oracle.spmv_transpose m y in
  let xv = Fv.of_array x in
  List.iter
    (fun (lo, hi) ->
      let part = Fv.create (hi - lo) in
      Sparse.spmv_into m ~x:xv ~r_lo:lo part;
      check_gf_array
        (Printf.sprintf "spmv_into [%d,%d)" lo hi)
        (Array.sub full lo (hi - lo))
        (Fv.to_array part))
    [ (0, 37); (0, 1); (36, 37); (5, 21); (17, 18) ];
  (* Column windows of the transpose, gathered from the column-major copy
     with y = y (x) [1]; a window accumulates onto what dst already holds. *)
  let csc = Sparse.Csc.of_csr m in
  let one = Fv.of_array [| Gf.one |] and yv = Fv.of_array y in
  let base = gf_of_rng rng in
  List.iter
    (fun (lo, hi) ->
      let part = Fv.create (hi - lo) in
      Fv.fill part base;
      Sparse.Csc.gather_acc csc ~hi:yv ~lo:one ~c_lo:lo part;
      check_gf_array
        (Printf.sprintf "Csc.gather_acc [%d,%d)" lo hi)
        (Array.map (Gf.add base) (Array.sub fullt lo (hi - lo)))
        (Fv.to_array part))
    [ (0, 29); (0, 1); (28, 29); (3, 17) ]

(* --- flat witness vector ------------------------------------------------ *)

let chain_circuit seed steps =
  let rng = Rng.create (Int64.of_int seed) in
  let b = Builder.create () in
  let cur = ref (Builder.witness b (Gf.of_int (2 + Rng.int rng 100))) in
  for _ = 1 to steps do
    let other = Builder.witness b (Gf.of_int (1 + Rng.int rng 100)) in
    cur :=
      (match Rng.int rng 3 with
      | 0 -> Gadgets.mul b !cur other
      | 1 -> Gadgets.add b !cur other
      | _ -> Gadgets.select b ~cond:(Gadgets.is_zero b other) !cur other)
  done;
  let out = Builder.input b (Builder.value b !cur) in
  Gadgets.assert_equal b (Builder.lc_var !cur) (Builder.lc_var out);
  Builder.finalize b

let test_z_fv () =
  let inst, asn = chain_circuit 3 50 in
  check_gf_array "z_fv" (Array.append asn.R1cs.w asn.R1cs.io) (Fv.to_array (R1cs.z_fv inst asn));
  Alcotest.(check bool) "z_fv validates the shape" true
    (try
       ignore (R1cs.z_fv inst { asn with R1cs.w = Array.sub asn.R1cs.w 1 1 });
       false
     with Invalid_argument _ -> true)

(* --- incremental Merkle builder ----------------------------------------- *)

let test_merkle_builder () =
  let rng = Rng.create 99L in
  List.iter
    (fun n ->
      let leaves =
        Array.init n (fun _ -> Merkle_oracle.leaf_of_column (random_gf_array rng 2))
      in
      let reference = Merkle.build (Merkle.of_digests leaves) in
      (* push in ragged chunks *)
      let b = Merkle.Builder.create n in
      let pos = ref 0 in
      let step = ref 1 in
      while !pos < n do
        let len = min !step (n - !pos) in
        Merkle.Builder.add b (Merkle.of_digests (Array.sub leaves !pos len));
        pos := !pos + len;
        step := 1 + ((!step * 3) mod 7)
      done;
      let tree = Merkle.Builder.finish b in
      Alcotest.(check string)
        (Printf.sprintf "root n=%d" n)
        (Merkle.root reference) (Merkle.root tree);
      let oracle = Merkle_oracle.build leaves in
      for i = 0 to n - 1 do
        if Merkle_oracle.path oracle i <> Merkle_oracle.path_of_tree tree i then
          Alcotest.failf "n=%d: path %d differs" n i
      done)
    [ 1; 2; 3; 5; 8; 13; 16; 33 ]

(* Random chunk sequences mixing aligned power-of-two runs (the builder's
   batched subtree path) with ragged, unaligned chunks, over leaf totals
   that are mostly not powers of two. *)
let prop_merkle_builder_chunks =
  qcheck ~count:100 "merkle builder: mixed chunks = string-tree oracle"
    QCheck.(pair (int_range 1 300) small_int)
    (fun (n, seed) ->
      let rng = Rng.create (Int64.of_int (succ seed)) in
      let leaves = Array.init n (fun _ -> Merkle_oracle.leaf_of_column (random_gf_array rng 1)) in
      let reference = Merkle_oracle.build leaves in
      let b = Merkle.Builder.create n in
      let pos = ref 0 in
      while !pos < n do
        let rest = n - !pos in
        let len =
          if Rng.int rng 2 = 0 then begin
            (* an aligned power of two: divides the position, fits the rest *)
            let m = ref 1 in
            while 2 * !m <= rest && !pos land ((2 * !m) - 1) = 0 && Rng.int rng 4 > 0 do
              m := 2 * !m
            done;
            !m
          end
          else min rest (1 + Rng.int rng 13)
        in
        Merkle.Builder.add b (Merkle.of_digests (Array.sub leaves !pos len));
        pos := !pos + len
      done;
      let tree = Merkle.Builder.finish b in
      String.equal (Merkle_oracle.root reference) (Merkle.root tree)
      && List.for_all
           (fun i -> Merkle_oracle.path reference i = Merkle_oracle.path_of_tree tree i)
           (List.init n Fun.id))

(* --- streaming sumcheck ------------------------------------------------- *)

let comb2 v = Gf.mul v.(0) v.(1)

let check_sumcheck_equal msg (a : Sumcheck.prover_result) (b : Sumcheck.prover_result) =
  Alcotest.(check int)
    (msg ^ ": rounds")
    (Array.length a.Sumcheck.proof.Sumcheck.round_polys)
    (Array.length b.Sumcheck.proof.Sumcheck.round_polys);
  Array.iteri
    (fun i g -> check_gf_array (Printf.sprintf "%s: round %d" msg i) g
        b.Sumcheck.proof.Sumcheck.round_polys.(i))
    a.Sumcheck.proof.Sumcheck.round_polys;
  check_gf_array (msg ^ ": claim") [| a.Sumcheck.claim |] [| b.Sumcheck.claim |];
  check_gf_array (msg ^ ": challenges") a.Sumcheck.challenges b.Sumcheck.challenges;
  check_gf_array (msg ^ ": final values") a.Sumcheck.final_values b.Sumcheck.final_values;
  Alcotest.(check bool)
    (msg ^ ": stats")
    true
    (a.Sumcheck.stats = b.Sumcheck.stats)

let run_sumcheck_pair ~l ~tables_count ~comb ~vcomb ~budget seed =
  let degree = Sumcheck.degree vcomb and comb_mults = Sumcheck.comb_mults vcomb in
  let n = 1 lsl l in
  let rng = Rng.create (Int64.of_int (succ seed)) in
  let tables = Array.init tables_count (fun _ -> random_gf_array rng n) in
  let claim =
    let acc = ref Gf.zero in
    for b = 0 to n - 1 do
      acc := Gf.add !acc (comb (Array.map (fun t -> t.(b)) tables))
    done;
    !acc
  in
  let t1 = Transcript.create "stream-test" in
  let reference =
    Sumcheck_oracle.prove_arrays ~comb_mults t1 ~degree ~tables ~comb ~claim
  in
  let t2 = Transcript.create "stream-test" in
  let spills = Array.map (fun t -> Spill.of_fv (Fv.of_array t)) tables in
  let streamed =
    Sumcheck.prove ?budget_bytes:budget t2 ~tables:spills ~comb:vcomb
  in
  Array.iteri
    (fun i t ->
      check_gf_array (Printf.sprintf "table %d untouched" i) t
        (Fv.to_array (Spill.as_fv spills.(i))))
    tables;
  let msg =
    Printf.sprintf "l=%d budget=%s" l
      (match budget with None -> "none" | Some b -> string_of_int b)
  in
  check_sumcheck_equal msg reference streamed;
  (* the transcripts must have ended in the same state *)
  Alcotest.(check bool)
    (msg ^ ": transcript state")
    true
    (Gf.equal (Transcript.challenge_gf t1 "after") (Transcript.challenge_gf t2 "after"))

let test_sumcheck_streaming () =
  (* budgets chosen to force: no budget (one RAM block), never streams
     (huge), streams the first round only, streams most rounds (tiny) *)
  List.iter
    (fun budget ->
      let salt = Option.value budget ~default:0 in
      List.iter
        (fun l ->
          run_sumcheck_pair ~l ~tables_count:2 ~comb:comb2 ~vcomb:Sumcheck.Product ~budget
            (l + salt);
          run_sumcheck_pair ~l ~tables_count:4 ~comb:Sumcheck_oracle.spartan_comb_scalar
            ~vcomb:Sumcheck.Eq_abc ~budget ((l * 31) + salt))
        [ 0; 1; 2; 5; 8 ])
    [ None; Some 256; Some (4 * 1024); Some (64 * 1024 * 1024) ]

let test_sumcheck_spilled_tables () =
  (* same equivalence with the inputs living in actual files *)
  let l = 7 in
  let n = 1 lsl l in
  let rng = Rng.create 1234L in
  let tables = Array.init 2 (fun _ -> random_gf_array rng n) in
  let claim =
    let acc = ref Gf.zero in
    for b = 0 to n - 1 do
      acc := Gf.add !acc (comb2 [| tables.(0).(b); tables.(1).(b) |])
    done;
    !acc
  in
  let t1 = Transcript.create "stream-test" in
  let reference =
    Sumcheck_oracle.prove_arrays ~comb_mults:1 t1 ~degree:2 ~tables ~comb:comb2 ~claim
  in
  let t2 = Transcript.create "stream-test" in
  let spills =
    Array.map
      (fun t ->
        let s = Spill.create ~tag:"sc" ~spill:true n in
        Spill.write s ~pos:0 (Fv.of_array t);
        s)
      tables
  in
  let streamed =
    Sumcheck.prove ~budget_bytes:512 t2 ~tables:spills ~comb:Sumcheck.Product
  in
  Array.iter Spill.free spills;
  check_sumcheck_equal "spilled tables" reference streamed

(* The combiner contract: random tables for each production combiner —
   [Product], [Eq_abc], and [Eq_abc_batch] over [k] instances with random
   weights — written once as a scalar function for the boxed oracle. Sizes
   2..2^12 make halves both below and above the 1024-point chunk, and the
   streamed blocks under the small budgets are not multiples of it. *)
let random_combiner rng ~which ~k =
  match which with
  | 0 -> (Sumcheck.Product, (fun v -> Gf.mul v.(0) v.(1)), 2)
  | 1 -> (Sumcheck.Eq_abc, Sumcheck_oracle.spartan_comb_scalar, 4)
  | _ ->
    let rho = Array.init k (fun _ -> gf_of_rng rng) in
    (Sumcheck.Eq_abc_batch rho, Sumcheck_oracle.eq_abc_batch_scalar rho, 1 + (3 * k))

let prop_combiner_contract =
  qcheck ~count:25 "combiners: prove = prove_arrays (budgets x domains)"
    QCheck.(
      make
        ~print:(fun (l, which, k, s) -> Printf.sprintf "l=%d comb=%d k=%d seed=%d" l which k s)
        Gen.(quad (int_range 1 12) (int_range 0 2) (int_range 1 4) small_nat))
    (fun (l, which, k, seed) ->
      let rng = Rng.create (Int64.of_int (seed + (1000 * l) + (100 * k) + which)) in
      let n = 1 lsl l in
      let comb, scalar, ntables = random_combiner rng ~which ~k in
      let degree = Sumcheck.degree comb in
      let tables = Array.init ntables (fun _ -> random_gf_array rng n) in
      let claim =
        let acc = ref Gf.zero in
        for b = 0 to n - 1 do
          acc := Gf.add !acc (scalar (Array.map (fun t -> t.(b)) tables))
        done;
        !acc
      in
      let reference =
        Sumcheck_oracle.prove_arrays ~comb_mults:(Sumcheck.comb_mults comb)
          (Transcript.create "contract") ~degree ~tables ~comb:scalar ~claim
      in
      List.iter
        (fun domains ->
          List.iter
            (fun budget ->
              let msg =
                Printf.sprintf "l=%d comb=%d k=%d domains=%d budget=%s" l which k domains
                  (match budget with None -> "none" | Some b -> string_of_int b)
              in
              let spills = Array.map (fun t -> Spill.of_fv (Fv.of_array t)) tables in
              let streamed =
                Pool.with_domains domains (fun () ->
                    Sumcheck.prove ?budget_bytes:budget (Transcript.create "contract")
                      ~tables:spills ~comb)
              in
              check_sumcheck_equal msg reference streamed;
              Array.iteri
                (fun i t ->
                  check_gf_array (Printf.sprintf "%s: table %d untouched" msg i) t
                    (Fv.to_array (Spill.as_fv spills.(i))))
                tables)
            [ None; Some 512; Some 2048; Some 65536 ])
        [ 1; 2; 3 ];
      true)

(* --- PCS commits and openings under a budget ----------------------------- *)

let budget_engine bytes = Engine.create ~stream_budget_bytes:bytes ()

(* Each commitment is opened twice, at two points: openings gather their
   columns from the codeword stored at commit time (in RAM, or in a spill
   file under the budget), so the second opening must read it exactly as
   committed — same proof from both backings, and the proof verifies. *)
let test_orion_budget_equal () =
  let params = { Orion.default_params with Orion.rows = 8 } in
  List.iter
    (fun l ->
      let rng = Rng.create 5L in
      let table = random_gf_array rng (1 lsl l) in
      let cd, cm_d = Orion.commit params (Rng.create 9L) table in
      let cs, cm_s = Orion.commit ~engine:(budget_engine 2048) params (Rng.create 9L) table in
      Alcotest.(check string) "orion root" cm_d.Orion.root cm_s.Orion.root;
      let transcript () =
        let t = Transcript.create "orion-stream" in
        Orion.absorb_commitment t cm_d;
        t
      in
      List.iter
        (fun seed ->
          let point = random_gf_array (Rng.create seed) l in
          let msg = Printf.sprintf "l=%d point seed %Ld" l seed in
          let v1, p1 = Orion.prove_eval params cd (transcript ()) point in
          let v2, p2 =
            Orion.prove_eval ~engine:(budget_engine 2048) params cs (transcript ()) point
          in
          Alcotest.(check bool) (msg ^ ": orion value") true (Gf.equal v1 v2);
          Alcotest.(check bool) (msg ^ ": orion value = MLE") true
            (Gf.equal v1 (Mle_oracle.eval table point));
          Alcotest.(check bool) (msg ^ ": orion proof") true (p1 = p2);
          match Orion.verify_eval params cm_d (transcript ()) point v1 p1 with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: %s" msg (Zk_pcs.Verify_error.to_string e))
        [ 6L; 7L ];
      Orion.free_committed cs;
      Orion.free_committed cd)
    [ 4; 7; 9 ]

exception Injected_write of int

(* A budgeted commit whose k-th spill write fails, for every k the commit
   reaches (data row blocks, mask rows, codeword blocks): the fault must
   propagate and both spill files must be released with it. 128 rows of 8
   columns under a 2 KiB budget run in four row blocks. *)
let test_orion_commit_fault_path () =
  let params = Orion.default_params in
  let table = random_gf_array (Rng.create 25L) 1024 in
  let commit () = Orion.commit ~engine:(budget_engine 2048) params (Rng.create 26L) table in
  let with_write_hook on_write f =
    let writes = ref 0 in
    Spill.set_io_fault_hook
      (Some
         (fun op ->
           if op = "write" then begin
             incr writes;
             on_write !writes
           end));
    Fun.protect ~finally:(fun () -> Spill.set_io_fault_hook None) f;
    !writes
  in
  let total =
    with_write_hook ignore (fun () ->
        let c, _ = commit () in
        Orion.free_committed c)
  in
  Alcotest.(check bool) "several block writes" true (total > 4);
  for k = 1 to total do
    let live = Spill.live_files () in
    let raised = ref false in
    ignore
      (with_write_hook
         (fun n -> if n = k then raise (Injected_write n))
         (fun () ->
           try
             let c, _ = commit () in
             Orion.free_committed c
           with Injected_write n when n = k -> raised := true));
    Alcotest.(check bool) (Printf.sprintf "write %d/%d: fault propagates" k total) true !raised;
    Alcotest.(check int)
      (Printf.sprintf "write %d/%d: live spill files" k total)
      live (Spill.live_files ())
  done

(* Each commitment is opened twice, at two points: the opening's sumcheck
   reads the committed table in place, so the second opening sees the
   table as committed. l = 0 has no sumcheck round. *)
let test_fri_budget_equal () =
  let params = Fri_pcs.test_params in
  List.iter
    (fun l ->
      let rng = Rng.create 15L in
      let table = random_gf_array rng (1 lsl l) in
      let cd, cm_d = Fri_pcs.commit params (Rng.create 19L) table in
      let cs, cm_s =
        Fri_pcs.commit ~engine:(budget_engine 2048) params (Rng.create 19L) table
      in
      Alcotest.(check string) "fri root" cm_d.Fri_pcs.root cm_s.Fri_pcs.root;
      let transcript () =
        let t = Transcript.create "fri-stream" in
        Fri_pcs.absorb_commitment t cm_d;
        t
      in
      List.iter
        (fun seed ->
          let point = random_gf_array (Rng.create seed) l in
          let msg = Printf.sprintf "l=%d point seed %Ld" l seed in
          let v1, p1 = Fri_pcs.open_at params cd (transcript ()) point in
          let v2, p2 =
            Fri_pcs.open_at ~engine:(budget_engine 2048) params cs (transcript ()) point
          in
          Alcotest.(check bool) (msg ^ ": fri value") true (Gf.equal v1 v2);
          Alcotest.(check bool) (msg ^ ": fri value = MLE") true
            (Gf.equal v1 (Mle_oracle.eval table point));
          Alcotest.(check bool) (msg ^ ": fri proof") true (p1 = p2);
          match Fri_pcs.verify params cm_d (transcript ()) point v1 p1 with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: %s" msg (Zk_pcs.Verify_error.to_string e))
        [ 16L; 17L ];
      Fri_pcs.free_committed cs;
      Fri_pcs.free_committed cd)
    [ 0; 2; 5; 8 ]

(* --- end-to-end Spartan: one prover, every budget ------------------------ *)

let engine_of budget = Engine.create ?stream_budget_bytes:budget ()

(* Every golden Spartan fixture of test_pcs.ml, proved under each budget
   (none = one RAM block; 2 KiB and 8 KiB force multi-block spills; 256 MiB
   spills with one block): the payload hash must be the pinned one every
   time. The 300-constraint fixtures run at domain counts 1/2/3; the larger
   ones, whose SpMV passes split into several row/column blocks under the
   small budgets, at one domain. Each budget also runs once on the scalar
   C kernels ([Native.with_scalar_c]), at one domain, so byte identity
   under a budget holds on more than one kernel tier. *)
let test_spartan_budget_sweep () =
  let live_before = Spill.live_files () in
  let budgets =
    [ None; Some (2 * 1024); Some (8 * 1024); Some (64 * 1024); Some (256 * 1024 * 1024) ]
  in
  let legs n =
    let best = List.map (fun d -> (string_of_int d, d, fun f -> f ())) in
    best (if n <= 300 then [ 1; 2; 3 ] else [ 1 ])
    @ [ ("1 scalar", 1, Nocap_native.Native.with_scalar_c) ]
  in
  let orion =
    List.map
      (fun (name, n, seed, params, expected) ->
        ( name, n, seed, expected,
          fun engine inst asn ->
            Spartan.proof_to_bytes (fst (Spartan.prove ~engine params inst asn)) ))
      Test_pcs.golden_cases
  in
  let fri =
    List.map
      (fun (name, n, seed, expected) ->
        ( name, n, seed, expected,
          fun engine inst asn ->
            Spartan_fri.proof_to_bytes
              (fst (Spartan_fri.prove ~engine Spartan_fri.test_params inst asn)) ))
      Test_pcs.fri_golden_cases
  in
  List.iter
    (fun (name, n, seed, expected, prove) ->
      let inst, asn = Zk_workloads.Synthetic.circuit ~n_constraints:n ~seed () in
      List.iter
        (fun budget ->
          List.iter
            (fun (leg, d, tier) ->
              Pool.with_domains d (fun () ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s budget=%s domains=%s" name
                       (match budget with None -> "none" | Some b -> string_of_int b)
                       leg)
                    expected
                    (tier (fun () -> Test_pcs.payload_hash (prove (engine_of budget) inst asn)))))
            (legs n))
        budgets)
    (orion @ fri);
  Alcotest.(check int) "no leaked spill files" live_before (Spill.live_files ())

(* With no budget the whole pipeline runs over RAM-backed vectors: not one
   spill file is opened and not one byte is written to disk. *)
let test_no_budget_never_spills () =
  let inst, asn = chain_circuit 21 120 in
  List.iter
    (fun d ->
      Pool.with_domains d (fun () ->
          let check label prove =
            let bytes0 = Spill.spilled_bytes_total () in
            let files0 = Spill.live_files () in
            let spy = ref 0 in
            Spill.set_io_fault_hook (Some (fun _ -> incr spy));
            Fun.protect ~finally:(fun () -> Spill.set_io_fault_hook None) prove;
            Alcotest.(check int)
              (Printf.sprintf "%s domains=%d: bytes spilled" label d)
              bytes0 (Spill.spilled_bytes_total ());
            Alcotest.(check int)
              (Printf.sprintf "%s domains=%d: live files" label d)
              files0 (Spill.live_files ());
            Alcotest.(check int) (Printf.sprintf "%s domains=%d: file I/O" label d) 0 !spy
          in
          check "orion" (fun () -> ignore (Spartan.prove Spartan.test_params inst asn));
          check "fri" (fun () -> ignore (Spartan_fri.prove Spartan_fri.test_params inst asn))))
    [ 1; 2 ]

let test_spartan_streaming_verifies () =
  let inst, asn = chain_circuit 4 80 in
  let io = R1cs.public_io inst asn in
  let proof, _ = Spartan.prove ~engine:(budget_engine 4096) Spartan.test_params inst asn in
  (match Spartan.verify Spartan.test_params inst ~io proof with
  | Ok () -> ()
  | Error e -> Alcotest.failf "orion streamed proof rejected: %s" (Zk_pcs.Verify_error.to_string e));
  let proof, _ =
    Spartan_fri.prove ~engine:(budget_engine 4096) Spartan_fri.test_params inst asn
  in
  match Spartan_fri.verify Spartan_fri.test_params inst ~io proof with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fri streamed proof rejected: %s" (Zk_pcs.Verify_error.to_string e)

(* --- configuration knob ------------------------------------------------- *)

let test_budget_knob () =
  (try
     ignore (Engine.create ~stream_budget_bytes:0 ());
     Alcotest.fail "zero budget should raise"
   with Invalid_argument _ -> ());
  (try
     ignore (Engine.create ~stream_budget_bytes:(-5) ());
     Alcotest.fail "negative budget should raise"
   with Invalid_argument _ -> ());
  let lookup kvs k = List.assoc_opt k kvs in
  (match Engine.Config.parse ~lookup:(lookup [ ("NOCAP_STREAM_BUDGET_MB", "64") ]) with
  | Ok c -> Alcotest.(check (option int)) "parsed MB" (Some 64) c.Engine.Config.stream_budget_mb
  | Error e -> Alcotest.failf "well-formed budget rejected: %s" e);
  List.iter
    (fun bad ->
      match Engine.Config.parse ~lookup:(lookup [ ("NOCAP_STREAM_BUDGET_MB", bad) ]) with
      | Ok _ -> Alcotest.failf "malformed budget %S accepted" bad
      | Error _ -> ())
    [ "abc"; "-3"; "0"; "12.5"; "" ];
  (* byte-granular override wins over the MB knob *)
  let config =
    { Engine.Config.default with Engine.Config.stream_budget_mb = Some 512 }
  in
  let e = Engine.create ~config ~stream_budget_bytes:4096 () in
  Alcotest.(check (option int)) "bytes win" (Some 4096) (Engine.stream_budget_bytes e);
  let e = Engine.create ~config () in
  Alcotest.(check (option int))
    "MB scaled" (Some (512 * 1024 * 1024))
    (Engine.stream_budget_bytes e)

let suite =
  List.map Leak_check.wrap
    [
      Alcotest.test_case "spill roundtrip + cleanup" `Quick test_spill_roundtrip;
      Alcotest.test_case "spill RAM backing" `Quick test_spill_ram_backing;
      Alcotest.test_case "spill view blocks" `Quick test_spill_view;
      Alcotest.test_case "spill bounds checks" `Quick test_spill_bounds;
      prop_eq_table_into;
      Alcotest.test_case "ranged spmv = full" `Quick test_spmv_ranges;
      Alcotest.test_case "z_fv = z" `Quick test_z_fv;
      Alcotest.test_case "merkle builder = build" `Quick test_merkle_builder;
      prop_merkle_builder_chunks;
      Alcotest.test_case "sumcheck budgets = prove_arrays" `Quick test_sumcheck_streaming;
      Alcotest.test_case "sumcheck over spilled tables" `Quick test_sumcheck_spilled_tables;
      prop_combiner_contract;
      Alcotest.test_case "orion: budget = no budget" `Quick test_orion_budget_equal;
      Alcotest.test_case "orion: commit fault at every write" `Quick
        test_orion_commit_fault_path;
      Alcotest.test_case "fri: budget = no budget" `Quick test_fri_budget_equal;
      Alcotest.test_case "spartan budget sweep = goldens" `Quick test_spartan_budget_sweep;
      Alcotest.test_case "no budget never touches disk" `Quick test_no_budget_never_spills;
      Alcotest.test_case "spartan streamed proofs verify" `Quick
        test_spartan_streaming_verifies;
      Alcotest.test_case "budget knob parse + precedence" `Quick test_budget_knob;
    ]
