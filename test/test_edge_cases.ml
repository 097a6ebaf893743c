(* Edge cases and failure injection across the stack: minimum sizes,
   boundary widths, malformed arguments, and pathological inputs. *)

module Gf = Zk_field.Gf
module Mle = Zk_poly.Mle
module Orion = Zk_orion.Orion
module Spartan = Zk_spartan.Spartan
module Builder = Zk_r1cs.Builder
module Gadgets = Zk_r1cs.Gadgets
module R1cs = Zk_r1cs.R1cs
module Sumcheck = Zk_sumcheck.Sumcheck
module Transcript = Zk_hash.Transcript
module Merkle = Zk_merkle.Merkle
module Rng = Zk_util.Rng

let gf = Alcotest.testable Gf.pp Gf.equal

let raises_invalid f =
  try
    f ();
    false
  with Invalid_argument _ -> true

let test_minimum_spartan_instance () =
  (* log_size = 1: one constraint, one witness, io = [1]. *)
  let b = Builder.create () in
  let x = Builder.witness b (Gf.of_int 1) in
  Builder.constrain b (Builder.lc_var x) (Builder.lc_var x) (Builder.lc_var x);
  let inst, asn = Builder.finalize b in
  Alcotest.(check int) "log size" 1 inst.R1cs.log_size;
  let proof, _ = Spartan.prove Spartan.test_params inst asn in
  match Spartan.verify Spartan.test_params inst ~io:(R1cs.public_io inst asn) proof with
  | Ok () -> ()
  | Error e -> Alcotest.failf "minimum instance failed: %s" (Zk_pcs.Verify_error.to_string e)

let test_orion_single_element () =
  (* A 1-element table: num_vars = 0, rows = cols = 1. *)
  let params = { Orion.default_params with Orion.rows = 8 } in
  let rng = Rng.create 200L in
  let table = [| Gf.of_int 42 |] in
  let committed, cm = Orion.commit params rng table in
  let pt = Transcript.create "edge" in
  Orion.absorb_commitment pt cm;
  let value, proof = Orion.prove_eval params committed pt [||] in
  Alcotest.check gf "value" (Gf.of_int 42) value;
  let vt = Transcript.create "edge" in
  Orion.absorb_commitment vt cm;
  match Orion.verify_eval params cm vt [||] value proof with
  | Ok () -> ()
  | Error e -> Alcotest.failf "single-element orion failed: %s" (Zk_pcs.Verify_error.to_string e)

let test_sumcheck_one_variable () =
  let tables = [| [| Gf.of_int 3; Gf.of_int 4 |]; [| Gf.of_int 5; Gf.of_int 6 |] |] in
  let claim = Gf.of_int 39 in
  let pt = Transcript.create "edge" in
  let res =
    Sumcheck.prove pt ~tables:(Sumcheck_oracle.spills tables) ~comb:Sumcheck.Product
  in
  Alcotest.check gf "claim" claim res.Sumcheck.claim;
  let vt = Transcript.create "edge" in
  match Sumcheck.verify vt ~degree:2 ~num_vars:1 ~claim res.Sumcheck.proof with
  | Ok v ->
    Alcotest.check gf "reduced claim"
      (Gf.mul
         (Mle_oracle.eval tables.(0) v.Sumcheck.point)
         (Mle_oracle.eval tables.(1) v.Sumcheck.point))
      v.Sumcheck.value
  | Error e -> Alcotest.failf "1-variable sumcheck: %s" (Zk_pcs.Verify_error.to_string e)

let test_bad_arguments_rejected () =
  Alcotest.(check bool) "sumcheck empty tables" true
    (raises_invalid (fun () ->
         ignore (Sumcheck.prove (Transcript.create "x") ~tables:[||] ~comb:Sumcheck.Product)));
  Alcotest.(check bool) "sumcheck non-pow2" true
    (raises_invalid (fun () ->
         ignore
           (Sumcheck.prove (Transcript.create "x")
              ~tables:(Sumcheck_oracle.spills [| Array.make 3 Gf.zero; Array.make 3 Gf.zero |])
              ~comb:Sumcheck.Product)));
  Alcotest.(check bool) "sumcheck Eq_abc_batch with no weights" true
    (raises_invalid (fun () ->
         ignore
           (Sumcheck.prove (Transcript.create "x")
              ~tables:(Sumcheck_oracle.spills [| Array.make 4 Gf.zero |])
              ~comb:(Sumcheck.Eq_abc_batch [||]))));
  Alcotest.(check bool) "sumcheck Eq_abc_batch over four tables per weight" true
    (raises_invalid (fun () ->
         ignore
           (Sumcheck.prove (Transcript.create "x")
              ~tables:(Sumcheck_oracle.spills (Array.make 8 (Array.make 4 Gf.zero)))
              ~comb:(Sumcheck.Eq_abc_batch [| Gf.one; Gf.one |]))));
  Alcotest.(check bool) "sumcheck Eq_abc over two tables" true
    (raises_invalid (fun () ->
         ignore
           (Sumcheck.prove (Transcript.create "x")
              ~tables:(Sumcheck_oracle.spills [| Array.make 4 Gf.zero; Array.make 4 Gf.zero |])
              ~comb:Sumcheck.Eq_abc)));
  let fvs k len = Array.init k (fun _ -> Nocap_vec.Fv.create len) in
  Alcotest.(check bool) "round kernel Eq_abc over five tables" true
    (raises_invalid (fun () -> ignore (Sumcheck.round_kernel Sumcheck.Eq_abc (fvs 5 8))));
  Alcotest.(check bool) "round kernel odd length" true
    (raises_invalid (fun () -> ignore (Sumcheck.round_kernel Sumcheck.Product (fvs 2 3))));
  Alcotest.(check bool) "round kernel fold into short halves" true
    (raises_invalid (fun () ->
         ignore (Sumcheck.round_kernel Sumcheck.Product ~fold:(Gf.one, fvs 2 2) (fvs 2 8))));
  Alcotest.(check bool) "mle dimension mismatch" true
    (raises_invalid (fun () -> ignore (Mle_oracle.eval (Array.make 4 Gf.zero) [| Gf.one |])));
  Alcotest.(check bool) "merkle empty" true
    (raises_invalid (fun () -> ignore (Merkle.build (Nocap_vec.Fv.create 0))));
  Alcotest.(check bool) "gadget width 0" true
    (raises_invalid (fun () ->
         let b = Builder.create () in
         ignore (Gadgets.bits_of b ~width:0 (Builder.witness b Gf.zero))));
  Alcotest.(check bool) "negative workload" true
    (raises_invalid (fun () ->
         ignore (Nocap_model.Workload.spartan_orion ~n_constraints:(-1.0) ())))

let test_gadget_boundary_widths () =
  let b = Builder.create () in
  (* width 62 comparisons and width 63 decompositions are the documented
     maxima. *)
  let big = Builder.witness b (Gf.of_int64 0x3FFF_FFFF_FFFF_FFFFL) in
  let bits = Gadgets.bits_of b ~width:63 big in
  Alcotest.(check int) "63 bits" 63 (Array.length bits);
  let x = Builder.witness b (Gf.of_int64 0x3FFF_FFFF_FFFF_FFFEL) in
  ignore (Gadgets.bits_of b ~width:62 x);
  let lt = Gadgets.less_than b ~width:62 x big in
  Alcotest.check gf "max-width comparison" Gf.one (Builder.value b lt);
  let inst, asn = Builder.finalize b in
  Alcotest.(check bool) "satisfied" true (R1cs.satisfied inst asn);
  Alcotest.(check bool) "width 64 rejected" true
    (raises_invalid (fun () -> ignore (Gadgets.bits_of b ~width:64 big)));
  Alcotest.(check bool) "less_than width 63 rejected" true
    (raises_invalid (fun () -> ignore (Gadgets.less_than b ~width:63 x big)))

let test_zero_and_extreme_field_values () =
  (* Witness values at the top of the field range survive the pipeline. *)
  let b = Builder.create () in
  let near_p = Gf.of_int64 (Int64.sub Gf.p 1L) in
  let x = Builder.witness b near_p in
  let y = Builder.witness b (Gf.inv near_p) in
  Builder.constrain b (Builder.lc_var x) (Builder.lc_var y) (Builder.lc_const Gf.one);
  let z = Builder.witness b Gf.zero in
  Builder.constrain b (Builder.lc_var z) (Builder.lc_var x) (Builder.lc_var z);
  let inst, asn = Builder.finalize b in
  let proof, _ = Spartan.prove Spartan.test_params inst asn in
  match Spartan.verify Spartan.test_params inst ~io:(R1cs.public_io inst asn) proof with
  | Ok () -> ()
  | Error e -> Alcotest.failf "extreme values: %s" (Zk_pcs.Verify_error.to_string e)

let test_all_zero_witness () =
  (* An instance whose witness is identically zero still proves (exercises
     zero rows through RS encoding and Merkle hashing). *)
  let b = Builder.create () in
  for _ = 1 to 10 do
    let z = Builder.witness b Gf.zero in
    Builder.constrain b (Builder.lc_var z) (Builder.lc_var z) (Builder.lc_var z)
  done;
  let inst, asn = Builder.finalize b in
  let proof, _ = Spartan.prove Spartan.test_params inst asn in
  match Spartan.verify Spartan.test_params inst ~io:(R1cs.public_io inst asn) proof with
  | Ok () -> ()
  | Error e -> Alcotest.failf "zero witness: %s" (Zk_pcs.Verify_error.to_string e)

let test_vm_errors () =
  let module Vm = Nocap_model.Vm in
  let module Isa = Nocap_model.Isa in
  Alcotest.(check bool) "tiny vector rejected" true
    (raises_invalid (fun () -> ignore (Vm.create ~vector_len:2 ~num_regs:4 ~mem_slots:1)));
  let vm = Vm.create ~vector_len:8 ~num_regs:2 ~mem_slots:1 in
  Alcotest.(check bool) "bad register" true
    (raises_invalid (fun () -> Vm.exec vm [ Isa.Vadd (5, 0, 1) ]));
  Alcotest.(check bool) "bad memory slot" true
    (raises_invalid (fun () -> Vm.exec vm [ Isa.Vload (0, 3) ]));
  Alcotest.(check bool) "bad permutation length" true
    (raises_invalid (fun () -> Vm.exec vm [ Isa.Vshuffle (0, 1, [| 0; 1 |]) ]))

let test_interleave_vs_rotate_identity () =
  (* The paper's example: a rotation by 520 = 8 + 512 decomposes into a
     128-lane rotation plus a cross-row move; on the VM a single Vrotate must
     equal composing the two. *)
  let module Vm = Nocap_model.Vm in
  let module Isa = Nocap_model.Isa in
  let k = 1024 in
  let vm = Vm.create ~vector_len:k ~num_regs:4 ~mem_slots:2 in
  let rng = Rng.create 201L in
  let v = Array.init k (fun _ -> Gf.random rng) in
  Vm.write_mem vm 0 v;
  Vm.exec vm [ Isa.Vload (0, 0); Isa.Vrotate (1, 0, 520); Isa.Vstore (1, 1) ];
  let direct = Vm.read_mem vm 1 in
  Vm.exec vm [ Isa.Vload (0, 0); Isa.Vrotate (2, 0, 8); Isa.Vrotate (3, 2, 512); Isa.Vstore (1, 3) ];
  let composed = Vm.read_mem vm 1 in
  Array.iteri (fun i x -> Alcotest.check gf (Printf.sprintf "lane %d" i) x composed.(i)) direct

let suite =
  [
    Alcotest.test_case "minimum Spartan instance" `Quick test_minimum_spartan_instance;
    Alcotest.test_case "Orion single element" `Quick test_orion_single_element;
    Alcotest.test_case "sumcheck one variable" `Quick test_sumcheck_one_variable;
    Alcotest.test_case "bad arguments rejected" `Quick test_bad_arguments_rejected;
    Alcotest.test_case "gadget boundary widths" `Quick test_gadget_boundary_widths;
    Alcotest.test_case "extreme field values" `Quick test_zero_and_extreme_field_values;
    Alcotest.test_case "all-zero witness" `Quick test_all_zero_witness;
    Alcotest.test_case "VM errors" `Quick test_vm_errors;
    Alcotest.test_case "rotation decomposition" `Quick test_interleave_vs_rotate_identity;
  ]
