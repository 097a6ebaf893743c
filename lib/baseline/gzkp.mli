(** GZKP (ASPLOS'23): Groth16 on an NVIDIA V100 GPU. The paper reports 37.44 s
    at 16M constraints (Table I) and, assuming generous linear scaling from
    the GPU's modular-arithmetic throughput (Sec. IX-B), 513 s for the 550M-
    constraint Auction benchmark. *)

val table1_seconds : float
(** 37.44 s at 16M constraints. *)
