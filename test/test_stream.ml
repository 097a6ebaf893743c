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

(* Count file transfers (reads and writes) for the duration of [f]. *)
let with_io_count f =
  let ios = ref 0 in
  Spill.set_io_fault_hook (Some (fun _ -> incr ios));
  Fun.protect ~finally:(fun () -> Spill.set_io_fault_hook None) f;
  !ios

let filled ~spill data =
  let s = Spill.create ~tag:"walk" ~spill (Array.length data) in
  Spill.write s ~pos:0 (Fv.of_array data);
  s

(* Read walks hand each block the elements a plain array slice holds, in
   row order, for ragged tails, a block past the row count, no rows, and
   attachments shaped like FRI's halves and Orion's row matrix; write
   walks store exactly the blocks the body fills. Both backings. *)
let test_spill_walk () =
  let n = 513 in
  let data = random_gf_array (Rng.create 42L) n in
  let slice off len = Array.sub data off len in
  List.iter
    (fun spill ->
      let s = filled ~spill data in
      let read_walk name ~rows ~block atts =
        let next = ref 0 in
        Spill.walk ~rows ~block ~read:(List.map (fun (off, w) -> (s, off, w)) atts)
          (fun ~pos ~len srcs dsts ->
            let msg = Printf.sprintf "%s (spilled %b) block at %d" name spill pos in
            Alcotest.(check int) (msg ^ ": in order") !next pos;
            Alcotest.(check int) (msg ^ ": length") (min block (rows - pos)) len;
            Alcotest.(check int) (msg ^ ": no write blocks") 0 (Array.length dsts);
            List.iteri
              (fun i (off, w) ->
                check_gf_array msg (slice (off + (pos * w)) (len * w)) (Fv.to_array srcs.(i)))
              atts;
            next := pos + len);
        Alcotest.(check int) (Printf.sprintf "%s (spilled %b): covered" name spill) rows !next
      in
      read_walk "ragged tail" ~rows:n ~block:32 [ (0, 1) ];
      read_walk "block > rows" ~rows:n ~block:1000 [ (0, 1) ];
      read_walk "one row per block" ~rows:9 ~block:1 [ (500, 1) ];
      read_walk "fri halves" ~rows:256 ~block:100 [ (0, 1); (256, 1) ];
      read_walk "orion rows" ~rows:31 ~block:7 [ (1, 16); (497, 0) ];
      read_walk "no rows" ~rows:0 ~block:4 [ (n, 3) ];
      (* Write walks: every element of an attached range is set by the
         body; the rest of the vector stays zero. *)
      List.iter
        (fun (name, rows, block, off, w) ->
          let d = Spill.create ~tag:"walk-dst" ~spill n in
          Spill.walk ~rows ~block ~read:[ (s, off, w) ] ~write:[ (d, off, w) ]
            (fun ~pos:_ ~len:_ srcs dsts ->
              Fv.blit ~src:srcs.(0) ~src_pos:0 ~dst:dsts.(0) ~dst_pos:0 ~len:(Fv.length srcs.(0)));
          let expect =
            Array.init n (fun i -> if i >= off && i < off + (rows * w) then data.(i) else Gf.zero)
          in
          check_gf_array (Printf.sprintf "write %s (spilled %b)" name spill) expect
            (Fv.to_array (Spill.to_fv d));
          Spill.free d)
        [
          ("ragged tail", n, 32, 0, 1);
          ("block > rows", 200, 1000, 13, 1);
          ("orion rows", 31, 7, 1, 16);
          ("no rows", 0, 5, 0, 1);
        ];
      Spill.free s)
    [ false; true ]

exception Body_fault of int

(* A body that raises at block [k] frees every written vector (and no
   read one) and re-raises, for every [k]; a tripped cancel token raises
   before the first transfer; an attachment past its vector raises
   Invalid_argument before the first transfer. *)
let test_spill_walk_failures () =
  let n = 100 and block = 16 in
  let data = random_gf_array (Rng.create 43L) n in
  List.iter
    (fun spill ->
      let s = filled ~spill data in
      let live = Spill.live_files () in
      let blocks = (n + block - 1) / block in
      let walk_into ?(read = [ (s, 0, 1) ]) body =
        let a = Spill.create ~tag:"walk-a" ~spill n and b = Spill.create ~tag:"walk-b" ~spill n in
        Spill.walk ~rows:n ~block ~read ~write:[ (a, 0, 1); (b, 0, 1) ] body;
        Spill.free a;
        Spill.free b
      in
      for k = 0 to blocks - 1 do
        (match
           walk_into (fun ~pos ~len:_ _ _ -> if pos / block = k then raise (Body_fault k))
         with
        | () -> Alcotest.failf "raise at block %d: walk returned" k
        | exception Body_fault j when j = k -> ());
        Alcotest.(check int) (Printf.sprintf "raise at block %d (spilled %b): live files" k spill)
          live (Spill.live_files ())
      done;
      let tok = Pool.Cancel.create () in
      Pool.Cancel.cancel ~reason:"walk" tok;
      let ios =
        with_io_count (fun () ->
            let walk () = walk_into (fun ~pos:_ ~len:_ _ _ -> ()) in
            match Pool.Cancel.with_token tok walk with
            | () -> Alcotest.fail "cancelled walk returned"
            | exception Pool.Cancel.Cancelled _ -> ())
      in
      Alcotest.(check int) (Printf.sprintf "cancel (spilled %b): transfers" spill) 0 ios;
      List.iter
        (fun (name, read) ->
          let ios =
            with_io_count (fun () ->
                match walk_into ~read (fun ~pos:_ ~len:_ _ _ -> ()) with
                | () -> Alcotest.failf "%s: walk returned" name
                | exception Invalid_argument _ -> ())
          in
          Alcotest.(check int) (Printf.sprintf "%s (spilled %b): transfers" name spill) 0 ios)
        [ ("range past the end", [ (s, 1, 1) ]); ("negative offset", [ (s, -1, 1) ]);
          ("negative width", [ (s, 0, -1) ]) ];
      Alcotest.(check int) (Printf.sprintf "failed walks (spilled %b): live files" spill)
        live (Spill.live_files ());
      check_gf_array "read vector intact" data (Fv.to_array (Spill.to_fv s));
      Spill.free s)
    [ false; true ]

(* Blocks move straight between an [Fv] block and the file: sub-views at
   odd offsets of larger vectors, written to and read from odd element
   positions, round-trip exactly and leave the neighbours alone. *)
let test_spill_sub_views () =
  let n = 101 in
  let data = random_gf_array (Rng.create 44L) n in
  List.iter
    (fun spill ->
      let s = Spill.create ~tag:"views" ~spill n in
      let big = Fv.of_array (Array.append [| Gf.one; Gf.two; Gf.one |] data) in
      List.iter
        (fun (pos, len) ->
          Spill.write s ~pos (Fv.sub_view big ~pos:(3 + pos) ~len))
        [ (0, 1); (1, 37); (38, 13); (51, 50) ];
      check_gf_array (Printf.sprintf "write views (spilled %b)" spill) data
        (Fv.to_array (Spill.to_fv s));
      let out = Fv.create (n + 10) in
      Fv.fill out Gf.two;
      List.iter
        (fun (pos, len) -> Spill.read s ~pos (Fv.sub_view out ~pos:(5 + pos) ~len))
        [ (3, 97); (0, 3); (100, 1) ];
      check_gf_array (Printf.sprintf "read views (spilled %b)" spill)
        (Array.concat [ Array.make 5 Gf.two; data; Array.make 5 Gf.two ])
        (Fv.to_array out);
      Spill.free s)
    [ false; true ]

(* A freed file-backed vector refuses every transfer; a freed RAM-backed
   one is still its [Fv]. *)
let test_spill_use_after_free () =
  let s = Spill.create ~tag:"freed" ~spill:true 8 in
  Spill.free s;
  let buf = Fv.create 4 in
  List.iter
    (fun (name, io) ->
      match io () with
      | () -> Alcotest.failf "%s after free returned" name
      | exception Invalid_argument _ -> ())
    [
      ("read", fun () -> Spill.read s ~pos:0 buf);
      ("write", fun () -> Spill.write s ~pos:0 buf);
      ("get", fun () -> ignore (Spill.get s 1));
    ]

(* The one block rule: under a budget a block stages at most half of it
   whenever one row fits, one row when none does, and never more rows
   than there are; with no budget it is every row. *)
let prop_block_rows =
  qcheck ~count:500 "Spill.block_rows fits half the budget"
    QCheck.(triple (int_range 1 100_000) (int_range 1 4096) (int_range 1 100_000))
    (fun (budget, row_bytes, rows) ->
      let b = Spill.block_rows ~budget:(Some budget) ~row_bytes rows in
      Spill.block_rows ~budget:None ~row_bytes rows = rows
      && b >= 1 && b <= rows
      && (if row_bytes <= budget / 2 then row_bytes * b <= budget / 2 else b = 1)
      && (b = rows || row_bytes * (b + 1) > budget / 2))

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
  Sparse_oracle.of_list ~nrows ~ncols !entries

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
  (* Column windows of the transpose product, gathered as row windows of
     the transpose with y = y (x) [1]; a window accumulates onto what dst
     already holds. *)
  let mt = Sparse.transpose m in
  let one = Fv.of_array [| Gf.one |] and yv = Fv.of_array y in
  let base = gf_of_rng rng in
  List.iter
    (fun (lo, hi) ->
      let part = Fv.create (hi - lo) in
      Fv.fill part base;
      Sparse.gather_acc mt ~hi:yv ~lo:one ~r_lo:lo part;
      check_gf_array
        (Printf.sprintf "gather_acc [%d,%d)" lo hi)
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

(* The witness half and the public io are read out of z in place: the
   witness is a view sharing z's storage, not a copy. *)
let test_assignment_views () =
  let inst, z = chain_circuit 3 50 in
  let half = R1cs.size inst / 2 in
  check_gf_array "witness = z prefix"
    (Fv.to_array (Fv.sub_view z ~pos:0 ~len:half))
    (Fv.to_array (R1cs.witness inst z));
  check_gf_array "public io = live io prefix"
    (Fv.to_array (Fv.sub_view z ~pos:half ~len:inst.R1cs.num_io))
    (R1cs.public_io inst z);
  let z' = Fv.copy z in
  let w' = R1cs.witness inst z' in
  Fv.set w' 0 (Gf.add (Fv.get w' 0) Gf.one);
  Alcotest.(check bool) "a write through the view lands in z" true
    (Gf.equal (Fv.get w' 0) (Fv.get z' 0) && not (Gf.equal (Fv.get z' 0) (Fv.get z 0)))

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
      let flat = Fv.of_array table in
      let cd, cm_d = Orion.commit params (Rng.create 9L) flat in
      let cs, cm_s = Orion.commit ~engine:(budget_engine 2048) params (Rng.create 9L) flat in
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

(* A commit whose rows are wide next to its budget: each block write
   carries exactly [Spill.block_rows] rows (two of 512 data and 2048
   codeword columns in 80 KiB), so the 12 rows (8 data, 4 mask) take six
   blocks of two writes each, and the root is the one with no budget. *)
let test_orion_wide_commit_blocks () =
  let params = { Orion.default_params with Orion.rows = 8 } in
  let table = Fv.of_array (random_gf_array (Rng.create 27L) 4096) in
  let budget = 80 * 1024 in
  let cols = 512 and code_len = 2048 and enc_rows = 12 in
  let block = Spill.block_rows ~budget:(Some budget) ~row_bytes:(8 * (cols + code_len)) enc_rows in
  Alcotest.(check int) "rows per block" 2 block;
  let _, cm = Orion.commit params (Rng.create 28L) table in
  let writes = Atomic.make 0 in
  Spill.set_io_fault_hook (Some (fun op -> if op = "write" then Atomic.incr writes));
  let c, cm_s =
    Fun.protect ~finally:(fun () -> Spill.set_io_fault_hook None) (fun () ->
        Orion.commit ~engine:(budget_engine budget) params (Rng.create 28L) table)
  in
  Orion.free_committed c;
  Alcotest.(check int) "block writes" (2 * ((enc_rows + block - 1) / block)) (Atomic.get writes);
  Alcotest.(check string) "root" cm.Orion.root cm_s.Orion.root

exception Injected_write of int

(* A budgeted commit whose k-th spill write fails, for every k the commit
   reaches (row blocks and codeword blocks): the fault must propagate and
   both spill files must be released with it. 128 data rows and 4 mask
   rows of 8 columns (32 codeword columns, 320 staged bytes a row) under a
   2 KiB budget run in 44 blocks of three rows. *)
let test_orion_commit_fault_path () =
  let params = Orion.default_params in
  let table = Fv.of_array (random_gf_array (Rng.create 25L) 1024) in
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
      let flat = Fv.of_array table in
      let cd, cm_d = Fri_pcs.commit params (Rng.create 19L) flat in
      let cs, cm_s =
        Fri_pcs.commit ~engine:(budget_engine 2048) params (Rng.create 19L) flat
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
   under a budget holds on more than one kernel tier. Every proof of a
   fixture reads the same z, which the prover and both PCS backends borrow
   without a copy: after each proof z must still equal its copy from
   before the first, and each repeat must give the pinned bytes again. *)
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
      let z0 = Fv.copy asn in
      List.iter
        (fun budget ->
          List.iter
            (fun (leg, d, tier) ->
              Pool.with_domains d (fun () ->
                  let label =
                    Printf.sprintf "%s budget=%s domains=%s" name
                      (match budget with None -> "none" | Some b -> string_of_int b)
                      leg
                  in
                  Alcotest.(check string) label expected
                    (tier (fun () -> Test_pcs.payload_hash (prove (engine_of budget) inst asn)));
                  Alcotest.(check bool) (label ^ ": z unchanged") true (Fv.equal z0 asn)))
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

exception Injected_io of string * int

(* One budgeted proof per backend at 4 KiB, with a fault injected at every
   spill transfer in turn (each read, then each write): the fault must
   propagate out of [prove] and every spill file must be released with it.
   The fault-free run pins the proof's spill traffic exactly: the bytes
   written (which vectors spill) and the read and write counts (how many
   [Spill.block_rows] blocks the budget makes). *)
let test_spartan_fault_every_transfer () =
  let inst, asn = chain_circuit 4 80 in
  let engine = budget_engine 4096 in
  (* The openings' point reads run on every pool domain: count atomically. *)
  let count ~fault prove =
    let reads = Atomic.make 0 and writes = Atomic.make 0 in
    Spill.set_io_fault_hook
      (Some
         (fun op ->
           let k = 1 + Atomic.fetch_and_add (if op = "read" then reads else writes) 1 in
           if fault = Some (op, k) then raise (Injected_io (op, k))));
    Fun.protect ~finally:(fun () -> Spill.set_io_fault_hook None) prove;
    (Atomic.get reads, Atomic.get writes)
  in
  List.iter
    (fun (name, want_reads, want_writes, bytes, prove) ->
      let bytes0 = Spill.spilled_bytes_total () in
      let reads, writes = count ~fault:None prove in
      Alcotest.(check int) (name ^ ": bytes spilled") bytes (Spill.spilled_bytes_total () - bytes0);
      Alcotest.(check int) (name ^ ": reads") want_reads reads;
      Alcotest.(check int) (name ^ ": writes") want_writes writes;
      List.iter
        (fun (op, total) ->
          for k = 1 to total do
            let live = Spill.live_files () in
            let msg = Printf.sprintf "%s: %s %d/%d" name op k total in
            (match count ~fault:(Some (op, k)) prove with
            | _ -> Alcotest.failf "%s: fault did not propagate" msg
            | exception Injected_io (o, j) when o = op && j = k -> ());
            Alcotest.(check int) (msg ^ ": live spill files") live (Spill.live_files ())
          done)
        [ ("read", reads); ("write", writes) ])
    [
      ( "orion", 567, 49, 35840,
        fun () -> ignore (Spartan.prove ~engine Spartan.test_params inst asn) );
      ( "fri", 704, 49, 38912,
        fun () -> ignore (Spartan_fri.prove ~engine Spartan_fri.test_params inst asn) );
    ]

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
      Alcotest.test_case "spill walk = plain array" `Quick test_spill_walk;
      Alcotest.test_case "spill walk: raise, cancel, bad range" `Quick test_spill_walk_failures;
      Alcotest.test_case "spill bounds checks" `Quick test_spill_bounds;
      Alcotest.test_case "spill sub-views at odd offsets" `Quick test_spill_sub_views;
      Alcotest.test_case "spill transfer after free raises" `Quick test_spill_use_after_free;
      prop_block_rows;
      prop_eq_table_into;
      Alcotest.test_case "ranged spmv = full" `Quick test_spmv_ranges;
      Alcotest.test_case "witness and io are views of z" `Quick test_assignment_views;
      Alcotest.test_case "sumcheck budgets = prove_arrays" `Quick test_sumcheck_streaming;
      Alcotest.test_case "sumcheck over spilled tables" `Quick test_sumcheck_spilled_tables;
      prop_combiner_contract;
      Alcotest.test_case "orion: budget = no budget" `Quick test_orion_budget_equal;
      Alcotest.test_case "orion: wide commit blocks = block_rows" `Quick
        test_orion_wide_commit_blocks;
      Alcotest.test_case "orion: commit fault at every write" `Quick
        test_orion_commit_fault_path;
      Alcotest.test_case "fri: budget = no budget" `Quick test_fri_budget_equal;
      Alcotest.test_case "spartan budget sweep = goldens" `Quick test_spartan_budget_sweep;
      Alcotest.test_case "no budget never touches disk" `Quick test_no_budget_never_spills;
      Alcotest.test_case "spartan streamed proofs verify" `Quick
        test_spartan_streaming_verifies;
      Alcotest.test_case "spartan: fault at every spill transfer" `Quick
        test_spartan_fault_every_transfer;
      Alcotest.test_case "budget knob parse + precedence" `Quick test_budget_knob;
    ]
