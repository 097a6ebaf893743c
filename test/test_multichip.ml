(* The rack-scale multi-accelerator model (Sec. X). *)

module Multichip = Nocap_model.Multichip

let test_multichip_single () =
  let r = Multichip.run ~chips:1 ~n_constraints:16.0e6 () in
  Alcotest.(check (float 1e-9)) "speedup 1" 1.0 r.Multichip.speedup;
  Alcotest.(check (float 1e-9)) "no exchange" 0.0 r.Multichip.exchange_seconds

let test_multichip_scaling () =
  let rs = Multichip.sweep ~n_constraints:550.0e6 ~chips:[ 1; 2; 4; 8; 16 ] () in
  (* Speedup grows with chips but sublinearly (aggregation overhead). *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
      a.Multichip.speedup < b.Multichip.speedup && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "speedup monotone" true (monotone rs);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "efficiency <= 1 at %d chips" r.Multichip.chips)
        true
        (r.Multichip.efficiency <= 1.0 +. 1e-9))
    rs;
  let r16 = List.nth rs 4 in
  Alcotest.(check bool) "16 chips give real speedup" true (r16.Multichip.speedup > 8.0);
  Alcotest.(check bool) "but not ideal" true (r16.Multichip.speedup < 16.0)

let test_multichip_interconnect_sensitivity () =
  let fast = Multichip.run ~interconnect_gbps:256.0 ~chips:8 ~n_constraints:268.4e6 () in
  let slow = Multichip.run ~interconnect_gbps:1.0 ~chips:8 ~n_constraints:268.4e6 () in
  Alcotest.(check bool) "slow interconnect hurts" true
    (slow.Multichip.total_seconds > fast.Multichip.total_seconds)

let suite =
  [
    Alcotest.test_case "multichip single" `Quick test_multichip_single;
    Alcotest.test_case "multichip scaling" `Quick test_multichip_scaling;
    Alcotest.test_case "interconnect sensitivity" `Quick test_multichip_interconnect_sensitivity;
  ]
