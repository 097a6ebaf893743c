(* Multilinear-extension tests. *)

module Gf = Zk_field.Gf
module Mle = Zk_poly.Mle
module Rng = Zk_util.Rng

let gf = Alcotest.testable Gf.pp Gf.equal

(* --- MLE --- *)

let test_mle_on_cube () =
  (* On Boolean points the MLE reproduces the table. *)
  let rng = Rng.create 11L in
  let l = 4 in
  let table = Array.init (1 lsl l) (fun _ -> Gf.random rng) in
  for i = 0 to (1 lsl l) - 1 do
    Alcotest.check gf
      (Printf.sprintf "table[%d]" i)
      table.(i)
      (Mle_oracle.eval table (Mle_oracle.eval_of_index l i))
  done

let test_eq_table () =
  let rng = Rng.create 12L in
  let l = 5 in
  let r = Array.init l (fun _ -> Gf.random rng) in
  let eq = Mle.eq_table r in
  (* sum_b eq(r, b) = 1 *)
  Alcotest.check gf "partition of unity" Gf.one (Array.fold_left Gf.add Gf.zero eq);
  (* eq-table entries agree with the closed form. *)
  for b = 0 to (1 lsl l) - 1 do
    Alcotest.check gf "pointwise" (Mle.eq_point r (Mle_oracle.eval_of_index l b)) eq.(b)
  done;
  (* eval via inner product with the eq table. *)
  let table = Array.init (1 lsl l) (fun _ -> Gf.random rng) in
  let dot = ref Gf.zero in
  Array.iteri (fun i e -> dot := Gf.add !dot (Gf.mul e table.(i))) eq;
  Alcotest.check gf "eval = <table, eq>" (Mle_oracle.eval table r) !dot

let test_fold_top () =
  let rng = Rng.create 13L in
  let l = 6 in
  let table = Array.init (1 lsl l) (fun _ -> Gf.random rng) in
  let r = Array.init l (fun _ -> Gf.random rng) in
  (* Folding variable-by-variable equals direct evaluation. *)
  let cur = ref (Array.copy table) in
  Array.iter (fun ri -> cur := Mle_oracle.fold_top !cur ri) r;
  Alcotest.check gf "fold chain" (Mle_oracle.eval table r) (!cur).(0);
  (* In-place fold agrees with the copying fold. *)
  let buf = Array.copy table in
  let len = ref (Array.length buf) in
  Array.iter (fun ri -> len := Mle_oracle.fold_top_in_place buf ~len:!len ri) r;
  Alcotest.(check int) "folded to one" 1 !len;
  Alcotest.check gf "in-place" (Mle_oracle.eval table r) buf.(0)

let prop_fold_linear =
  QCheck.Test.make ~count:40 ~name:"fold_top at 0/1 selects halves"
    QCheck.(int_range 1 6)
    (fun l ->
      let rng = Rng.create (Int64.of_int (l + 77)) in
      let n = 1 lsl l in
      let table = Array.init n (fun _ -> Gf.random rng) in
      let lo = Mle_oracle.fold_top table Gf.zero and hi = Mle_oracle.fold_top table Gf.one in
      let ok = ref true in
      for b = 0 to (n / 2) - 1 do
        if not (Gf.equal lo.(b) table.(b) && Gf.equal hi.(b) table.(b + (n / 2))) then
          ok := false
      done;
      !ok)

let test_num_vars () =
  Alcotest.(check int) "8 -> 3" 3 (Mle_oracle.num_vars (Array.make 8 Gf.zero));
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Mle_oracle: table must be a power of two") (fun () ->
      ignore (Mle_oracle.num_vars (Array.make 6 Gf.zero)))

let suite =
  [
    Alcotest.test_case "MLE on hypercube" `Quick test_mle_on_cube;
    Alcotest.test_case "eq table" `Quick test_eq_table;
    Alcotest.test_case "fold_top" `Quick test_fold_top;
    Alcotest.test_case "num_vars" `Quick test_num_vars;
    QCheck_alcotest.to_alcotest prop_fold_linear;
  ]
