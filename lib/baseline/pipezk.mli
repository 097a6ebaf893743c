(** Performance model of PipeZK (ISCA'21), the state-of-the-art Groth16 ASIC
    the paper compares against, scaled per Sec. VII to NoCap's 14nm node,
    area, frequency and memory bandwidth, and using BLS12-381.

    The defining property (Sec. III): PipeZK accelerates the MSM/NTT pipeline
    by 32x over the CPU, but the MSM-G2 phase stays on the CPU and caps
    end-to-end speedup — at 16M constraints the accelerated part takes 1.43 s
    and the CPU part the remaining 6.59 s of the 8.02 s total. Both parts
    scale linearly with constraint count. *)

val seconds : n_constraints:float -> float
(** End-to-end proving time. *)
