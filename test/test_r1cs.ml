(* Sparse matrices, R1CS instances, the builder DSL, and the gadget library. *)

module Gf = Zk_field.Gf
module Sparse = Zk_r1cs.Sparse
module R1cs = Zk_r1cs.R1cs
module Builder = Zk_r1cs.Builder
module Gadgets = Zk_r1cs.Gadgets
module Mle = Zk_poly.Mle
module Rng = Zk_util.Rng
module Fv = Nocap_vec.Fv

let gf = Alcotest.testable Gf.pp Gf.equal

(* The whole product [m * x] through the prover's row-window SpMV. *)
let spmv (m : Sparse.t) x =
  let dst = Nocap_vec.Fv.create m.Sparse.nrows in
  Sparse.spmv_into m ~x:(Nocap_vec.Fv.of_array x) ~r_lo:0 dst;
  Nocap_vec.Fv.to_array dst

let test_sparse_spmv () =
  (* [[1 2 0] [0 0 3] [0 0 0]] * [1 1 1] = [3 3 0] *)
  let m =
    Sparse_oracle.of_list ~nrows:3 ~ncols:3
      [ (0, 0, Gf.one); (0, 1, Gf.two); (1, 2, Gf.of_int 3) ]
  in
  let y = spmv m [| Gf.one; Gf.one; Gf.one |] in
  Alcotest.check gf "y0" (Gf.of_int 3) y.(0);
  Alcotest.check gf "y1" (Gf.of_int 3) y.(1);
  Alcotest.check gf "y2" Gf.zero y.(2);
  Alcotest.(check int) "nnz" 3 (Sparse.nnz m)

let test_sparse_duplicates_and_zeros () =
  let m =
    Sparse_oracle.of_list ~nrows:2 ~ncols:2
      [ (0, 0, Gf.one); (0, 0, Gf.two); (1, 1, Gf.zero) ]
  in
  Alcotest.(check int) "duplicates merged, zeros dropped" 1 (Sparse.nnz m);
  let y = spmv m [| Gf.one; Gf.one |] in
  Alcotest.check gf "merged value" (Gf.of_int 3) y.(0)

let test_sparse_transpose () =
  let rng = Rng.create 30L in
  let n = 16 in
  let entries = ref [] in
  for _ = 1 to 40 do
    entries := (Rng.int rng n, Rng.int rng n, Gf.random rng) :: !entries
  done;
  let m = Sparse_oracle.of_list ~nrows:n ~ncols:n !entries in
  let x = Array.init n (fun _ -> Gf.random rng) in
  let y = Array.init n (fun _ -> Gf.random rng) in
  (* <y, Mx> = <M^T y, x> *)
  let dot a b = Array.fold_left Gf.add Gf.zero (Array.map2 Gf.mul a b) in
  Alcotest.check gf "adjoint identity" (dot y (spmv m x)) (dot (Sparse_oracle.spmv_transpose m y) x);
  Alcotest.(check (array gf)) "spmv_into = oracle" (Sparse_oracle.spmv m x) (spmv m x)

(* [m]'s fields against the oracle's, one by one, as a QCheck verdict. *)
let same_csr name (expected : Sparse_oracle.csr) (m : Sparse.t) =
  let got = Sparse_oracle.csr_of m in
  let fail field = QCheck.Test.fail_reportf "%s: %s differs from the oracle" name field in
  (expected.nrows = got.nrows && expected.ncols = got.ncols || fail "shape")
  && (expected.row_ptr = got.row_ptr || fail "row_ptr")
  && (expected.col_idx = got.col_idx || fail "col_idx")
  && (Array.for_all2 Gf.equal expected.values got.values || fail "values")

let swapped m = List.map (fun (r, c, v) -> (c, r, v)) (List.of_seq (Sparse.entries m))

(* R1cs.make's [columns] are the transposes of A, B and C: swapped
   dimensions and, for each entry (r, c, v), the entry (c, r, v), in the
   canonical layout [of_triplets] builds. *)
let test_instance_columns () =
  let inst, _ = Zk_workloads.Synthetic.circuit ~n_constraints:300 ~seed:5L () in
  List.iteri
    (fun k (m : Sparse.t) ->
      let expected =
        Sparse_oracle.of_entries ~nrows:m.Sparse.ncols ~ncols:m.Sparse.nrows (swapped m)
      in
      Alcotest.(check bool) "columns = the oracle's transpose" true
        (same_csr "columns" expected inst.R1cs.columns.(k)))
    [ inst.R1cs.a; inst.R1cs.b; inst.R1cs.c ]

(* Random triplets on small shapes (1x1 and non-square included): any
   order, repeated positions, explicit zeros, and values drawn so that
   repeats often cancel to zero. *)
let random_triplets rng =
  let nrows = 1 + Rng.int rng 6 and ncols = 1 + Rng.int rng 6 in
  let pool = [| Gf.zero; Gf.one; Gf.two; Gf.neg Gf.one; Gf.neg Gf.two |] in
  let value () = if Rng.int rng 4 = 0 then Gf.random rng else pool.(Rng.int rng 5) in
  let entries =
    List.init (Rng.int rng 30) (fun _ -> (Rng.int rng nrows, Rng.int rng ncols, value ()))
  in
  (nrows, ncols, entries)

let prop_of_triplets =
  QCheck.Test.make ~count:500 ~name:"of_triplets = list oracle; transpose twice = identity"
    QCheck.int (fun seed ->
      let nrows, ncols, entries = random_triplets (Rng.create (Int64.of_int seed)) in
      let m = Sparse_oracle.of_list ~nrows ~ncols entries in
      same_csr "of_triplets" (Sparse_oracle.of_entries ~nrows ~ncols entries) m
      && same_csr "transpose"
           (Sparse_oracle.of_entries ~nrows:ncols ~ncols:nrows (swapped m))
           (Sparse.transpose m)
      && same_csr "transpose twice" (Sparse_oracle.csr_of m) (Sparse.transpose (Sparse.transpose m)))

(* [gather_acc] over a transpose, on every row window, against the
   oracle's transpose product with y = hi (x) lo, lo 1, 2 or 4 long; a
   window adds onto what [dst] holds. *)
let prop_gather_windows =
  QCheck.Test.make ~count:200 ~name:"gather_acc on a transpose = spmv_transpose, every window"
    QCheck.int (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let nrows, ncols, entries = random_triplets rng in
      let m = Sparse_oracle.of_list ~nrows ~ncols entries in
      let s = Rng.int rng 3 in
      let lo = Nocap_vec.Fv.of_array (Array.init (1 lsl s) (fun _ -> Gf.random rng)) in
      let hi =
        Nocap_vec.Fv.of_array (Array.init (((nrows - 1) lsr s) + 1) (fun _ -> Gf.random rng))
      in
      let y =
        Array.init nrows (fun r ->
            Gf.mul (Nocap_vec.Fv.get hi (r lsr s)) (Nocap_vec.Fv.get lo (r land ((1 lsl s) - 1))))
      in
      let expected = Sparse_oracle.spmv_transpose m y and mt = Sparse.transpose m in
      let base = Gf.random rng in
      List.for_all
        (fun r_lo ->
          List.for_all
            (fun r_hi ->
              let dst = Nocap_vec.Fv.create (r_hi - r_lo) in
              Nocap_vec.Fv.fill dst base;
              Sparse.gather_acc mt ~hi ~lo ~r_lo dst;
              Array.for_all2 Gf.equal
                (Array.map (Gf.add base) (Array.sub expected r_lo (r_hi - r_lo)))
                (Nocap_vec.Fv.to_array dst)
              || QCheck.Test.fail_reportf "window [%d, %d) of %dx%d" r_lo r_hi nrows ncols)
            (List.init (ncols - r_lo + 1) (fun k -> r_lo + k)))
        (List.init (ncols + 1) Fun.id))

let test_of_triplets_rejects () =
  let ints l = Bigarray.Array1.of_array Bigarray.int Bigarray.c_layout (Array.of_list l) in
  let build rows cols =
    Sparse.of_triplets ~nrows:2 ~ncols:3 (ints rows) (ints cols)
      (Nocap_vec.Fv.of_array (Array.make (List.length cols) Gf.one))
  in
  List.iter
    (fun (r, c) ->
      Alcotest.check_raises
        (Printf.sprintf "entry (%d, %d) of a 2x3" r c)
        (Invalid_argument "Sparse.of_triplets: entry out of bounds")
        (fun () -> ignore (build [ 0; r ] [ 0; c ])))
    [ (2, 0); (0, 3); (-1, 0); (0, -1) ];
  Alcotest.check_raises "lengths differ"
    (Invalid_argument "Sparse.of_triplets: rows, cols and values differ in length")
    (fun () -> ignore (build [ 0; 1 ] [ 0 ]))

let test_sparse_mle_eval () =
  let rng = Rng.create 31L in
  let n = 8 in
  let m =
    Sparse_oracle.of_list ~nrows:n ~ncols:n
      [ (0, 0, Gf.of_int 5); (3, 6, Gf.of_int 7); (7, 7, Gf.of_int 11) ]
  in
  let rx = Array.init 3 (fun _ -> Gf.random rng) in
  let ry = Array.init 3 (fun _ -> Gf.random rng) in
  let row_eq = Mle.eq_fv rx and col_eq = Mle.eq_fv ry in
  (* Reference: build the dense 64-entry MLE table and evaluate. *)
  let dense = Array.make (n * n) Gf.zero in
  Seq.iter (fun (r, c, v) -> dense.((r * n) + c) <- v) (Sparse.entries m);
  let expected = Mle_oracle.eval dense (Array.append rx ry) in
  Alcotest.check gf "sparse MLE = dense MLE" expected (Sparse_oracle.mle_eval m ~row_eq ~col_eq)

let test_bandwidth_profile () =
  let m =
    Sparse_oracle.of_list ~nrows:8 ~ncols:8
      [ (0, 0, Gf.one); (1, 2, Gf.one); (5, 1, Gf.one) ]
  in
  let max_band, mean = Sparse.bandwidth_profile m in
  Alcotest.(check int) "max band" 4 max_band;
  Alcotest.(check bool) "mean band" true (abs_float (mean -. (5.0 /. 3.0)) < 1e-9)

(* --- builder --- *)

let test_builder_simple () =
  (* Prove knowledge of x, y with x * y = 15 and x + y = 8. *)
  let b = Builder.create () in
  let x = Builder.witness b (Gf.of_int 3) in
  let y = Builder.witness b (Gf.of_int 5) in
  let prod = Builder.input b (Gf.of_int 15) in
  let sum = Builder.input b (Gf.of_int 8) in
  Builder.constrain b (Builder.lc_var x) (Builder.lc_var y) (Builder.lc_var prod);
  Builder.constrain b
    (Builder.lc_add (Builder.lc_var x) (Builder.lc_var y))
    (Builder.lc_var Builder.one)
    (Builder.lc_var sum);
  let inst, asn = Builder.finalize b in
  Alcotest.(check bool) "satisfied" true (R1cs.satisfied inst asn);
  Alcotest.(check int) "constraints" 2 inst.R1cs.num_constraints;
  (* The layout of z: witness [i] at slot [i], io [i] at [half + i], the
     constant 1 at [half], zeros everywhere else. *)
  let half = R1cs.size inst / 2 in
  Alcotest.(check int) "z length" (R1cs.size inst) (Fv.length asn);
  let slots =
    [ (Builder.one, half); (x, 0); (y, 1); (prod, half + 1); (sum, half + 2) ]
  in
  List.iter
    (fun (v, slot) ->
      Alcotest.check gf (Printf.sprintf "value at slot %d" slot) (Builder.value b v)
        (Fv.get asn slot))
    slots;
  Alcotest.check gf "z.(half) = 1" Gf.one (Fv.get asn half);
  for i = 0 to R1cs.size inst - 1 do
    if not (List.exists (fun (_, slot) -> slot = i) slots) then
      Alcotest.check gf (Printf.sprintf "padding slot %d" i) Gf.zero (Fv.get asn i)
  done;
  (* Finalizing again after more constraints writes a fresh z and leaves
     the first one as it was. *)
  let before = Fv.copy asn in
  let x2 = Builder.witness b (Gf.of_int 9) in
  Builder.constrain b (Builder.lc_var x) (Builder.lc_var x) (Builder.lc_var x2);
  let inst2, asn2 = Builder.finalize b in
  Alcotest.(check bool) "second z satisfied" true (R1cs.satisfied inst2 asn2);
  Alcotest.check gf "second z holds the new wire" (Gf.of_int 9) (Fv.get asn2 2);
  Alcotest.(check bool) "first z unchanged" true (Fv.equal before asn);
  Fv.set asn2 0 Gf.zero;
  Alcotest.(check bool) "the two z are independent" true (Fv.equal before asn)

let test_builder_rejects_bad_constraint () =
  let b = Builder.create () in
  let x = Builder.witness b (Gf.of_int 3) in
  Alcotest.(check bool) "raises" true
    (try
       Builder.constrain b (Builder.lc_var x) (Builder.lc_var x) (Builder.lc_const (Gf.of_int 10));
       false
     with Invalid_argument _ -> true)

let test_tampered_assignment_unsatisfied () =
  let b = Builder.create () in
  let x = Builder.witness b (Gf.of_int 3) in
  let y = Builder.witness b (Gf.of_int 5) in
  Builder.constrain b (Builder.lc_var x) (Builder.lc_var y) (Builder.lc_const (Gf.of_int 15));
  let inst, asn = Builder.finalize b in
  Alcotest.(check bool) "honest" true (R1cs.satisfied inst asn);
  Fv.set asn 0 (Gf.of_int 4);
  Alcotest.(check bool) "tampered" false (R1cs.satisfied inst asn)

(* A malformed assignment is rejected before any product, by the one
   validator every consumer calls: z one short, one long, a lone half, and
   z.(half) <> 1. *)
let test_assignment_shape_errors () =
  let b = Builder.create () in
  let x = Builder.witness b (Gf.of_int 3) in
  Builder.constrain b (Builder.lc_var x) (Builder.lc_var x) (Builder.lc_const (Gf.of_int 9));
  let inst, asn = Builder.finalize b in
  let resize len =
    Fv.of_array (Array.init len (fun i -> if i < Fv.length asn then Fv.get asn i else Gf.zero))
  in
  let n = R1cs.size inst in
  let halves = "assignment halves must be 2^(log_size-1)" in
  let not_one = Fv.copy asn in
  Fv.set not_one (n / 2) Gf.two;
  let bad =
    [ (resize (n - 1), halves); (resize (n + 1), halves); (resize (n / 2), halves);
      (not_one, "io.(0) must be 1") ]
  in
  List.iter
    (fun (asn, reason) ->
      let expected = Invalid_argument ("R1cs.check_assignment: " ^ reason) in
      Alcotest.check_raises "check_assignment" expected (fun () -> R1cs.check_assignment inst asn);
      Alcotest.check_raises "satisfied" expected (fun () -> ignore (R1cs.satisfied inst asn)))
    bad

(* --- gadgets --- *)

let test_gadget_arith () =
  let b = Builder.create () in
  let x = Builder.witness b (Gf.of_int 6) in
  let y = Builder.witness b (Gf.of_int 7) in
  let s = Gadgets.add b x y in
  let p = Gadgets.mul b x y in
  Alcotest.check gf "sum" (Gf.of_int 13) (Builder.value b s);
  Alcotest.check gf "product" (Gf.of_int 42) (Builder.value b p);
  let inst, asn = Builder.finalize b in
  Alcotest.(check bool) "satisfied" true (R1cs.satisfied inst asn)

let test_gadget_bits () =
  let b = Builder.create () in
  let v = Builder.witness b (Gf.of_int 0b1011010) in
  let bits = Gadgets.bits_of b ~width:8 v in
  let expect = [| 0; 1; 0; 1; 1; 0; 1; 0 |] in
  Array.iteri
    (fun i e -> Alcotest.check gf (Printf.sprintf "bit %d" i) (Gf.of_int e) (Builder.value b bits.(i)))
    expect;
  let packed = Gadgets.pack b bits in
  Alcotest.check gf "repack" (Gf.of_int 0b1011010) (Builder.value b packed);
  let inst, asn = Builder.finalize b in
  Alcotest.(check bool) "satisfied" true (R1cs.satisfied inst asn)

let test_gadget_bits_overflow_rejected () =
  let b = Builder.create () in
  let v = Builder.witness b (Gf.of_int 256) in
  Alcotest.(check bool) "reject too-wide value" true
    (try
       ignore (Gadgets.bits_of b ~width:8 v);
       false
     with Invalid_argument _ -> true)

let test_gadget_boolean_table () =
  let b = Builder.create () in
  let wire v = Builder.witness b (Gf.of_int v) in
  let check name f spec =
    List.iter
      (fun (x, y, expect) ->
        let r = f b (wire x) (wire y) in
        Alcotest.check gf (Printf.sprintf "%s %d %d" name x y) (Gf.of_int expect) (Builder.value b r))
      spec
  in
  check "xor" Gadgets.bxor [ (0, 0, 0); (0, 1, 1); (1, 0, 1); (1, 1, 0) ];
  check "and" Gadgets.band [ (0, 0, 0); (0, 1, 0); (1, 0, 0); (1, 1, 1) ];
  check "or" Gadgets.bor [ (0, 0, 0); (0, 1, 1); (1, 0, 1); (1, 1, 1) ];
  let n0 = Gadgets.bnot b (wire 0) and n1 = Gadgets.bnot b (wire 1) in
  Alcotest.check gf "not 0" Gf.one (Builder.value b n0);
  Alcotest.check gf "not 1" Gf.zero (Builder.value b n1);
  let inst, asn = Builder.finalize b in
  Alcotest.(check bool) "satisfied" true (R1cs.satisfied inst asn)

let test_gadget_select_iszero_equal () =
  let b = Builder.create () in
  let x = Builder.witness b (Gf.of_int 10) in
  let y = Builder.witness b (Gf.of_int 20) in
  let c1 = Builder.witness b Gf.one and c0 = Builder.witness b Gf.zero in
  Alcotest.check gf "select true" (Gf.of_int 10) (Builder.value b (Gadgets.select b ~cond:c1 x y));
  Alcotest.check gf "select false" (Gf.of_int 20) (Builder.value b (Gadgets.select b ~cond:c0 x y));
  let z = Builder.witness b Gf.zero in
  Alcotest.check gf "is_zero 0" Gf.one (Builder.value b (Gadgets.is_zero b z));
  Alcotest.check gf "is_zero 10" Gf.zero (Builder.value b (Gadgets.is_zero b x));
  let x' = Builder.witness b (Gf.of_int 10) in
  Alcotest.check gf "equal yes" Gf.one (Builder.value b (Gadgets.equal b x x'));
  Alcotest.check gf "equal no" Gf.zero (Builder.value b (Gadgets.equal b x y));
  let inst, asn = Builder.finalize b in
  Alcotest.(check bool) "satisfied" true (R1cs.satisfied inst asn)

let test_gadget_less_than () =
  let b = Builder.create () in
  let cases = [ (3, 5, 1); (5, 3, 0); (4, 4, 0); (0, 255, 1); (255, 0, 0) ] in
  List.iter
    (fun (x, y, expect) ->
      let vx = Builder.witness b (Gf.of_int x) and vy = Builder.witness b (Gf.of_int y) in
      let lt = Gadgets.less_than b ~width:8 vx vy in
      Alcotest.check gf (Printf.sprintf "%d < %d" x y) (Gf.of_int expect) (Builder.value b lt))
    cases;
  let inst, asn = Builder.finalize b in
  Alcotest.(check bool) "satisfied" true (R1cs.satisfied inst asn)

let test_gadget_words () =
  let b = Builder.create () in
  let wa = Gadgets.const_word b ~width:16 0b1010101010101010L in
  let wb = Gadgets.const_word b ~width:16 0b0000111100001111L in
  let x = Gadgets.xor_word b wa wb in
  let value_of word =
    Array.to_list word
    |> List.mapi (fun i v -> Int64.shift_left (Gf.to_int64 (Builder.value b v)) i)
    |> List.fold_left Int64.logor 0L
  in
  Alcotest.(check int64) "xor word" 0b1010010110100101L (value_of x);
  Alcotest.(check int64) "rotl" 0b0101010101010101L (value_of (Gadgets.rotl_word wa 1));
  let inst, asn = Builder.finalize b in
  Alcotest.(check bool) "satisfied" true (R1cs.satisfied inst asn)

let prop_random_circuits_satisfied =
  (* Random gadget soup must always finalize into a satisfied instance. *)
  QCheck.Test.make ~count:25 ~name:"random gadget circuits are satisfied"
    QCheck.(int_range 1 60)
    (fun steps ->
      let rng = Rng.create (Int64.of_int (steps * 7919)) in
      let b = Builder.create () in
      let pool = ref [ Builder.witness b (Gf.of_int (1 + Rng.int rng 1000)) ] in
      let pick () = List.nth !pool (Rng.int rng (List.length !pool)) in
      for _ = 1 to steps do
        let v =
          match Rng.int rng 4 with
          | 0 -> Gadgets.add b (pick ()) (pick ())
          | 1 -> Gadgets.mul b (pick ()) (pick ())
          | 2 -> Gadgets.is_zero b (pick ())
          | _ -> Gadgets.add_lc b (Builder.lc_add (Builder.lc_var (pick ())) (Builder.lc_const (Gf.of_int 3)))
        in
        pool := v :: !pool
      done;
      let inst, asn = Builder.finalize b in
      R1cs.satisfied inst asn)

let suite =
  [
    Alcotest.test_case "sparse spmv" `Quick test_sparse_spmv;
    Alcotest.test_case "sparse duplicates/zeros" `Quick test_sparse_duplicates_and_zeros;
    Alcotest.test_case "sparse transpose adjoint" `Quick test_sparse_transpose;
    Alcotest.test_case "sparse MLE eval" `Quick test_sparse_mle_eval;
    Alcotest.test_case "instance columns are the transpose" `Quick test_instance_columns;
    Alcotest.test_case "of_triplets rejects bad triplets" `Quick test_of_triplets_rejects;
    QCheck_alcotest.to_alcotest prop_of_triplets;
    QCheck_alcotest.to_alcotest prop_gather_windows;
    Alcotest.test_case "bandwidth profile" `Quick test_bandwidth_profile;
    Alcotest.test_case "builder simple" `Quick test_builder_simple;
    Alcotest.test_case "builder rejects bad constraint" `Quick test_builder_rejects_bad_constraint;
    Alcotest.test_case "tampered assignment" `Quick test_tampered_assignment_unsatisfied;
    Alcotest.test_case "assignment shape errors" `Quick test_assignment_shape_errors;
    Alcotest.test_case "gadget arithmetic" `Quick test_gadget_arith;
    Alcotest.test_case "gadget bits" `Quick test_gadget_bits;
    Alcotest.test_case "gadget bits overflow" `Quick test_gadget_bits_overflow_rejected;
    Alcotest.test_case "gadget boolean table" `Quick test_gadget_boolean_table;
    Alcotest.test_case "gadget select/is_zero/equal" `Quick test_gadget_select_iszero_equal;
    Alcotest.test_case "gadget less_than" `Quick test_gadget_less_than;
    Alcotest.test_case "gadget words" `Quick test_gadget_words;
    QCheck_alcotest.to_alcotest prop_random_circuits_satisfied;
  ]
