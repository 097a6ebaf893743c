module Config = Nocap_model.Config
module Workload = Nocap_model.Workload
module Simulator = Nocap_model.Simulator
module Power = Nocap_model.Power
module Area = Nocap_model.Area
module Benchmarks = Zk_workloads.Benchmarks
module Cpu_model = Zk_baseline.Cpu_model
module Stats = Zk_util.Stats
module Zkdb = Zk_zkdb.Zkdb
module Multichip = Nocap_model.Multichip

let default_run () =
  Simulator.run Config.default (Workload.spartan_orion ~n_constraints:16.0e6 ())

let gmean_seconds config =
  Stats.gmean
    (List.map
       (fun (b : Benchmarks.t) ->
         let wl =
           Workload.spartan_orion ~density:b.Benchmarks.density
             ~n_constraints:b.Benchmarks.r1cs_size ()
         in
         (Simulator.run config wl).Simulator.total_seconds)
       Benchmarks.all)

let fig5 () =
  Render.section "Fig. 5: NoCap power breakdown (16M constraints)";
  let p = Power.of_result (default_run ()) in
  let fu, rf, hbm = Power.fractions p in
  Render.table
    ~header:[ "Component"; "Ours"; "Paper" ]
    [
      [ "Functional units"; Render.percent fu; "13%" ];
      [ "Register file"; Render.percent rf; "44%" ];
      [ "HBM"; Render.percent hbm; "42%" ];
      [ "Total power"; Render.watts (Power.total p); "62 W" ];
    ]

let fig6 () =
  Render.section "Fig. 6: runtime and memory-traffic breakdown across tasks";
  let r = default_run () in
  (* The CPU breakdown from Fig. 6a, for side-by-side comparison. *)
  let cpu_fractions =
    [ (Workload.Sumcheck, 0.70); (Workload.Reed_solomon, 0.19); (Workload.Poly_arith, 0.06);
      (Workload.Merkle_tree, 0.03); (Workload.Spmv, 0.02) ]
  in
  let paper_nocap_time =
    [ (Workload.Sumcheck, 0.735); (Workload.Reed_solomon, 0.09); (Workload.Poly_arith, 0.12);
      (Workload.Merkle_tree, 0.05); (Workload.Spmv, 0.005) ]
  in
  let paper_traffic =
    [ (Workload.Sumcheck, 0.55); (Workload.Poly_arith, 0.25); (Workload.Merkle_tree, 0.09);
      (Workload.Reed_solomon, 0.09); (Workload.Spmv, 0.01) ]
  in
  Render.table
    ~header:
      [ "Task"; "NoCap time"; "(paper)"; "NoCap traffic"; "(paper)"; "CPU time (paper)" ]
    (List.map
       (fun task ->
         [
           Workload.task_name task;
           Render.percent (Simulator.task_fraction r task);
           Render.percent (List.assoc task paper_nocap_time);
           Render.percent (Simulator.traffic_fraction r task);
           Render.percent (List.assoc task paper_traffic);
           Render.percent (List.assoc task cpu_fractions);
         ])
       Workload.all_tasks);
  Printf.printf "compute utilization: %s (paper: 60%%)\n"
    (Render.percent r.Simulator.compute_utilization)

let knobs =
  [
    ("arith", fun f -> Config.scale_fu Config.default `Arith f);
    ("hash", fun f -> Config.scale_fu Config.default `Hash f);
    ("ntt", fun f -> Config.scale_fu Config.default `Ntt f);
    ("hbm-bw", fun f -> Config.scale_hbm Config.default f);
    ("regfile", fun f -> Config.scale_regfile Config.default f);
  ]

let factors = [ 0.25; 0.5; 1.0; 2.0; 4.0 ]

let fig7_data () =
  let base = gmean_seconds Config.default in
  List.map
    (fun (name, scale) ->
      (name, List.map (fun f -> (f, base /. gmean_seconds (scale f))) factors))
    knobs

let fig7 () =
  Render.section "Fig. 7: parameter sensitivity (gmean performance vs default)";
  let data = fig7_data () in
  Render.table
    ~header:("Scale" :: List.map (fun (n, _) -> n) data)
    (List.mapi
       (fun i f ->
         Printf.sprintf "%.2fx" f
         :: List.map (fun (_, series) -> Printf.sprintf "%.2f" (snd (List.nth series i))) data)
       factors)

(* Design-space sweep: FU throughputs and storage independently, for 1 TB/s
   and 2 TB/s HBM (Fig. 8). *)
let design_points ~hbm_factor =
  let opts = [ 0.25; 0.5; 1.0; 2.0 ] in
  List.concat_map
    (fun arith ->
      List.concat_map
        (fun ntt ->
          List.concat_map
            (fun hash ->
              List.map
                (fun regfile ->
                  let c = Config.scale_fu Config.default `Arith arith in
                  let c = Config.scale_fu c `Ntt ntt in
                  let c = Config.scale_fu c `Hash hash in
                  let c = Config.scale_regfile c regfile in
                  let c = Config.scale_hbm c hbm_factor in
                  (Area.total (Area.of_config c), gmean_seconds c))
                [ 0.5; 1.0; 2.0 ])
            [ 0.5; 1.0; 2.0 ])
        [ 0.5; 1.0; 2.0 ])
    opts

let pareto points =
  (* Keep points not dominated in (area, time), sorted by area. *)
  let sorted = List.sort (fun (a1, _) (a2, _) -> compare a1 a2) points in
  let rec go best acc = function
    | [] -> List.rev acc
    | (a, t) :: rest ->
      if t < best then go t ((a, t) :: acc) rest else go best acc rest
  in
  go infinity [] sorted

let fig8_pareto ~hbm_factor = pareto (design_points ~hbm_factor)

let fig8 () =
  Render.section "Fig. 8: design space (area vs gmean proving time)";
  let show factor =
    let frontier = fig8_pareto ~hbm_factor:factor in
    Printf.printf "HBM %.0f GB/s Pareto frontier (%d points of %d swept):\n"
      (1024.0 *. factor) (List.length frontier)
      (List.length (design_points ~hbm_factor:factor));
    List.iter
      (fun (area, t) -> Printf.printf "  %6.1f mm^2  ->  %s\n" area (Render.seconds t))
      frontier
  in
  show 1.0;
  show 2.0;
  let chosen_area = Area.total (Area.of_config Config.default) in
  Printf.printf "chosen configuration: %.1f mm^2, %s gmean (the frontier flattens beyond it)\n"
    chosen_area
    (Render.seconds (gmean_seconds Config.default))

let ablations () =
  Render.section "Sec. VIII-C: protocol optimization ablations";
  let cpu opts = Cpu_model.spartan_orion_seconds ~options:opts ~n_constraints:16.0e6 () in
  let base_cpu = cpu Cpu_model.default_options in
  let wide = cpu { Cpu_model.default_options with Cpu_model.goldilocks = false } in
  let expander = cpu { Cpu_model.default_options with Cpu_model.reed_solomon = false } in
  let recompute_cpu = cpu { Cpu_model.default_options with Cpu_model.recompute = true } in
  let nocap ?recompute ?code () =
    let wl = Workload.spartan_orion ?recompute ?code ~n_constraints:16.0e6 () in
    (Simulator.run Config.default wl).Simulator.total_seconds
  in
  let base_nocap = nocap () in
  Render.table
    ~header:[ "Optimization"; "Effect"; "Paper" ]
    [
      [ "Goldilocks64 field (CPU)"; Render.ratio (wide /. base_cpu); "1.7x" ];
      [ "Reed-Solomon vs expander (CPU)"; Render.ratio (expander /. base_cpu); "1.2x" ];
      [
        "Sumcheck recomputation (CPU)";
        Printf.sprintf "%+.1f%%" (100.0 *. ((recompute_cpu /. base_cpu) -. 1.0));
        "+1% (left off)";
      ];
      [
        "Sumcheck recomputation (NoCap)";
        Render.ratio (nocap ~recompute:false () /. base_nocap);
        "1.1x";
      ];
      [
        "Reed-Solomon vs expander (NoCap)";
        Render.ratio (nocap ~code:`Expander () /. base_nocap);
        "(memory-bound)";
      ];
    ]

let db_throughput () =
  Render.section "Sec. VIII: real-time verifiable database (1 s latency target)";
  let row platform name =
    let tput ~include_send =
      Zkdb.max_throughput ~platform ~include_send ~latency_budget:1.0
    in
    [
      name;
      Printf.sprintf "%.0f tx/s" (tput ~include_send:false);
      Printf.sprintf "%.0f tx/s" (tput ~include_send:true);
    ]
  in
  Render.table
    ~header:[ "Prover"; "Throughput (no send)"; "Throughput (incl. send)" ]
    [ row Zkdb.Cpu "CPU"; row Zkdb.Nocap "NoCap" ];
  print_endline "paper: 2 tx/s (CPU) vs 1,142 tx/s (NoCap); see EXPERIMENTS.md for accounting"

let applications () =
  Render.section "Sec. I application case studies";
  (* 256 KB photo crop: the paper's three published numbers (>12 min CPU,
     ~1 s NoCap, 0.2 s verification) are mutually consistent with a ~122M
     constraint circuit. *)
  let photo_n = 122.0e6 in
  let cpu = Cpu_model.spartan_orion_seconds ~n_constraints:photo_n () in
  let wl = Workload.spartan_orion ~n_constraints:photo_n () in
  let nocap = (Simulator.run Config.default wl).Simulator.total_seconds in
  let verify = Zk_baseline.Proofsize.spartan_orion_verifier_seconds ~n_constraints:photo_n in
  (* Confidential-DP training: 100 h of proving to under 30 min. *)
  let dp_n = 100.0 *. 3600.0 /. (94.2 /. 16.0e6) in
  let dp_nocap =
    (Simulator.run Config.default (Workload.spartan_orion ~n_constraints:dp_n ()))
      .Simulator.total_seconds
  in
  Render.table
    ~header:[ "Use case"; "CPU"; "NoCap"; "Verify"; "Paper" ]
    [
      [
        "256 KB photo crop";
        Render.seconds cpu;
        Render.seconds nocap;
        Render.seconds verify;
        ">12 min / ~1 s / 0.2 s";
      ];
      [
        "Confidential-DP training";
        Render.seconds (100.0 *. 3600.0);
        Render.seconds dp_nocap;
        "-";
        "100 h -> <30 min";
      ];
    ]

let scaling () =
  Render.section "Sec. X: rack-scale proving (550M-constraint Auction statement)";
  let results = Multichip.sweep ~n_constraints:550.0e6 ~chips:[ 1; 2; 4; 8; 16; 32 ] () in
  Render.table
    ~header:[ "Chips"; "Shard"; "Exchange"; "Aggregate"; "Total"; "Speedup"; "Efficiency" ]
    (List.map
       (fun (r : Multichip.result) ->
         [
           string_of_int r.Multichip.chips;
           Render.seconds r.Multichip.shard_seconds;
           Render.seconds r.Multichip.exchange_seconds;
           Render.seconds r.Multichip.aggregate_seconds;
           Render.seconds r.Multichip.total_seconds;
           Render.ratio r.Multichip.speedup;
           Render.percent r.Multichip.efficiency;
         ])
       results)

let soundness_ablation () =
  Render.section "Soundness amplification: 3x repetition vs GF(p^2) challenges";
  (* Measure both provers on the same degree-3 sumcheck instance. *)
  let rng = Zk_util.Rng.create 4242L in
  let module Gf = Zk_field.Gf in
  let module Gf2 = Zk_field.Gf2 in
  let module Sumcheck = Zk_sumcheck.Sumcheck in
  let module Fv = Nocap_vec.Fv in
  let l = 12 in
  let tables =
    Array.init 4 (fun _ -> Fv.of_array (Array.init (1 lsl l) (fun _ -> Gf.random rng)))
  in
  let comb_ext v = Gf2.mul v.(0) (Gf2.sub (Gf2.mul v.(1) v.(2)) v.(3)) in
  let base =
    Sumcheck.prove (Zk_hash.Transcript.create "abl-base")
      ~tables:(Array.map Nocap_vec.Spill.of_fv tables)
      ~comb:Sumcheck.Eq_abc
  in
  let ext =
    let t = Zk_hash.Transcript.create "abl-ext" in
    Zk_sumcheck.Sumcheck_ext.prove t ~degree:3 ~tables:(Array.map Fv.to_array tables)
      ~comb:comb_ext ~comb_mults:2 ~claim:base.Sumcheck.claim
  in
  let reps3 = 3 * base.Sumcheck.stats.Sumcheck.mults in
  let ext_mults = ext.Zk_sumcheck.Sumcheck_ext.base_mults_equivalent in
  Render.table
    ~header:[ "Scheme"; "Prover mults (base-equivalent)"; "Proof elements / round" ]
    [
      [ "3x repetition (paper)"; string_of_int reps3; "3 x 4 base" ];
      [ "GF(p^2) challenges"; string_of_int ext_mults; "4 extension (= 8 base)" ];
      [
        "ratio";
        Printf.sprintf "%.2fx cheaper" (float_of_int reps3 /. float_of_int ext_mults);
        "1.5x smaller";
      ];
    ];
  print_endline
    "(the paper chose repetition; extension challenges are the standard alternative\n\
    \ and fit the same FUs: each extension mult is 3 base mults on the multiply FU)"
