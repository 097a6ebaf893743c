(* Sec. III: at 16M constraints, 8.02 s total of which 1.43 s is the
   accelerated portion; the rest is the CPU-bound MSM-G2 phase. *)
let accelerated_per_constraint = 1.43 /. 16.0e6
let cpu_per_constraint = (8.02 -. 1.43) /. 16.0e6

let accelerated_seconds ~n_constraints = accelerated_per_constraint *. n_constraints

let cpu_seconds ~n_constraints = cpu_per_constraint *. n_constraints

let seconds ~n_constraints = accelerated_seconds ~n_constraints +. cpu_seconds ~n_constraints
