(* The expression-language front end and the compile-time SpMV scheduler. *)

module Gf = Zk_field.Gf
module R1cs = Zk_r1cs.R1cs
module Sparse = Zk_r1cs.Sparse
module Spartan = Zk_spartan.Spartan
module Spmv = Nocap_model.Spmv_compile
module Vm = Nocap_model.Vm
module Rng = Zk_util.Rng

let gf = Alcotest.testable Gf.pp Gf.equal

open Lang

(* --- language --- *)

let test_interpreter_basics () =
  let env = { inputs = [ ("x", 10L) ]; secrets = [ ("s", 3L) ] } in
  Alcotest.check gf "const" (Gf.of_int 7) (interpret env (Const 7L));
  Alcotest.check gf "var" (Gf.of_int 10) (interpret env (Var "x"));
  Alcotest.check gf "arith" (Gf.of_int 39)
    (interpret env (Add (Mul (Var "x", Var "s"), Sub (Var "x", Const 1L))));
  Alcotest.check gf "eq true" Gf.one (interpret env (Eq (Var "s", Const 3L)));
  Alcotest.check gf "lt" Gf.one (interpret env (Lt (8, Var "s", Var "x")));
  Alcotest.check gf "if" (Gf.of_int 10)
    (interpret env (If (Lt (8, Var "s", Var "x"), Var "x", Var "s")));
  Alcotest.check gf "let" (Gf.of_int 36)
    (interpret env (Let ("t", Add (Var "s", Var "s"), Mul (Var "t", Add (Var "t", Const 0L)))));
  Alcotest.check gf "boolean algebra" Gf.one
    (interpret env (Or (And (Eq (Var "s", Const 4L), Const 1L), Not (Eq (Var "x", Const 0L)))))

let test_interpreter_errors () =
  let env = { inputs = []; secrets = [] } in
  let raises e =
    try
      ignore (interpret env e);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "unbound" true (raises (Var "nope"));
  Alcotest.(check bool) "non-boolean condition" true (raises (If (Const 5L, Const 1L, Const 2L)));
  Alcotest.(check bool) "width overflow" true (raises (Lt (4, Const 100L, Const 3L)))

let test_compile_matches_interpreter () =
  let env = { inputs = [ ("x", 12L); ("y", 40L) ]; secrets = [ ("s", 7L) ] } in
  let expr =
    Let
      ( "d",
        Sub (Var "y", Var "x"),
        If
          ( Lt (16, Var "s", Var "d"),
            Mul (Var "d", Add (Var "s", Const 1L)),
            Var "x" ) )
  in
  let program = [ Reveal ("out", expr); Assert_bool (Lt (16, Var "x", Var "y")) ] in
  let expected = interpret_program env program in
  let inst, asn, outputs = compile env program in
  Alcotest.(check bool) "satisfied" true (R1cs.satisfied inst asn);
  List.iter2
    (fun (n1, v1) (n2, v2) ->
      Alcotest.(check string) "output name" n1 n2;
      Alcotest.check gf "output value" v1 v2)
    expected outputs

let test_compiled_program_proves () =
  (* Prove knowledge of a secret s with s^2 + s + 7 = claim, s < 100. *)
  let env = { inputs = [ ("claim", 63L) ]; secrets = [ ("s", 7L) ] } in
  let program =
    [
      Assert_eq (Add (Mul (Var "s", Var "s"), Add (Var "s", Const 7L)), Var "claim");
      Assert_bool (Lt (8, Var "s", Const 100L));
    ]
  in
  let inst, asn, _ = compile env program in
  let proof, _ = Spartan.prove Spartan.test_params inst asn in
  match Spartan.verify Spartan.test_params inst ~io:(R1cs.public_io inst asn) proof with
  | Ok () -> ()
  | Error e -> Alcotest.failf "lang proof failed: %s" (Zk_pcs.Verify_error.to_string e)

let test_failed_assertion_raises () =
  let env = { inputs = []; secrets = [ ("s", 2L) ] } in
  let program = [ Assert_eq (Var "s", Const 3L) ] in
  Alcotest.(check bool) "compile refuses" true
    (try
       ignore (compile env program);
       false
     with Invalid_argument _ -> true)

(* Random expression generator for the differential property test. *)
let rec gen_expr rng depth =
  if depth = 0 then
    match Rng.int rng 3 with
    | 0 -> Const (Int64.of_int (Rng.int rng 50))
    | 1 -> Var "x"
    | _ -> Var "s"
  else begin
    let sub () = gen_expr rng (depth - 1) in
    match Rng.int rng 6 with
    | 0 -> Add (sub (), sub ())
    | 1 -> Sub (sub (), sub ())
    | 2 -> Mul (sub (), sub ())
    | 3 -> Let ("t", sub (), Add (Var "t", Var "t"))
    | 4 -> If (Eq (sub (), sub ()), sub (), sub ())
    | _ -> Eq (sub (), sub ())
  end

let prop_compile_differential =
  QCheck.Test.make ~count:40 ~name:"compiled circuits agree with the interpreter"
    QCheck.(pair small_nat (int_range 0 4))
    (fun (seed, depth) ->
      let rng = Rng.create (Int64.of_int ((seed * 31) + depth)) in
      let env = { inputs = [ ("x", Int64.of_int (Rng.int rng 100)) ];
                  secrets = [ ("s", Int64.of_int (Rng.int rng 100)) ] } in
      let expr = gen_expr rng depth in
      let program = [ Reveal ("out", expr) ] in
      let expected = interpret_program env program in
      let inst, asn, outputs = compile env program in
      R1cs.satisfied inst asn
      && List.for_all2 (fun (_, a) (_, b) -> Gf.equal a b) expected outputs)

(* --- SpMV scheduler --- *)

let random_band_matrix rng ~n ~band ~nnz =
  let entries = ref [] in
  for _ = 1 to nnz do
    let r = Rng.int rng n in
    let lo = max 0 (r - band) and hi = min (n - 1) (r + band) in
    let c = lo + Rng.int rng (hi - lo + 1) in
    entries := (r, c, Gf.random rng) :: !entries
  done;
  Sparse_oracle.of_list ~nrows:n ~ncols:n !entries

let test_spmv_matches_reference () =
  let rng = Rng.create 300L in
  List.iter
    (fun (n, k, band, nnz) ->
      let m = random_band_matrix rng ~n ~band ~nnz in
      let x = Array.init n (fun _ -> Gf.random rng) in
      let sched = Spmv.compile ~vector_len:k m in
      let vm = Vm.create ~vector_len:k ~num_regs:8 ~mem_slots:(2 * n / k + List.length sched.Spmv.coeff_slots + 4) in
      let y = Spmv.run vm sched x in
      let expected = Sparse_oracle.spmv m x in
      Array.iteri
        (fun i e -> Alcotest.check gf (Printf.sprintf "n=%d y[%d]" n i) e y.(i))
        expected)
    [ (16, 4, 2, 20); (64, 8, 4, 100); (128, 16, 8, 400); (64, 64, 16, 200) ]

let test_spmv_traffic_claims () =
  let rng = Rng.create 301L in
  let n = 128 and k = 16 in
  let m = random_band_matrix rng ~n ~band:4 ~nnz:500 in
  let sched = Spmv.compile ~vector_len:k m in
  (* Every matrix value is streamed exactly once. *)
  Alcotest.(check int) "matrix read once" (Sparse.nnz m) sched.Spmv.matrix_values_streamed;
  (* Band structure gives vector reuse: far fewer chunk loads than nonzeros,
     and no more than one load per (output chunk, input chunk) pair. *)
  Alcotest.(check bool) "vector reuse" true (sched.Spmv.x_chunk_loads < Sparse.nnz m);
  Alcotest.(check bool) "banded access stays near the diagonal" true
    (sched.Spmv.x_chunk_loads <= (n / k) * 3)

let test_spmv_on_r1cs_matrix () =
  (* The real A matrix of a workload circuit through the scheduler. *)
  let inst, asn = Zk_workloads.Synthetic.circuit ~n_constraints:120 ~seed:302L () in
  let m = inst.R1cs.a in
  let k = 16 in
  let x = Nocap_vec.Fv.to_array asn in
  let sched = Spmv.compile ~vector_len:k m in
  let slots = Array.length x / k * 2 + List.length sched.Spmv.coeff_slots + 4 in
  let vm = Vm.create ~vector_len:k ~num_regs:8 ~mem_slots:slots in
  let y = Spmv.run vm sched x in
  let expected = Sparse_oracle.spmv m x in
  Array.iteri (fun i e -> Alcotest.check gf (Printf.sprintf "Az[%d]" i) e y.(i)) expected

let test_spmv_rejects_bad_dims () =
  let m = Sparse_oracle.of_list ~nrows:12 ~ncols:12 [ (0, 0, Gf.one) ] in
  Alcotest.(check bool) "non-multiple dims" true
    (try
       ignore (Spmv.compile ~vector_len:8 m);
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "interpreter basics" `Quick test_interpreter_basics;
    Alcotest.test_case "interpreter errors" `Quick test_interpreter_errors;
    Alcotest.test_case "compile matches interpreter" `Quick test_compile_matches_interpreter;
    Alcotest.test_case "compiled program proves" `Quick test_compiled_program_proves;
    Alcotest.test_case "failed assertion raises" `Quick test_failed_assertion_raises;
    Alcotest.test_case "spmv matches reference" `Quick test_spmv_matches_reference;
    Alcotest.test_case "spmv traffic claims" `Quick test_spmv_traffic_claims;
    Alcotest.test_case "spmv on R1CS matrix" `Quick test_spmv_on_r1cs_matrix;
    Alcotest.test_case "spmv rejects bad dims" `Quick test_spmv_rejects_bad_dims;
    QCheck_alcotest.to_alcotest prop_compile_differential;
  ]
