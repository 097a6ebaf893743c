(** Area model (Table II): 14nm synthesis results for the default
    configuration, scaled linearly with lane counts / capacity / PHY count for
    the design-space exploration (Fig. 8). *)

type breakdown = {
  ntt_fu : float;
  mul_fu : float;
  add_fu : float;
  hash_fu : float;
  regfile : float;
  benes : float;
  mem_interface : float; (** HBM PHYs: one 14.9 mm^2 PHY per 512 GB/s *)
}

val of_config : Config.t -> breakdown

val compute_total : breakdown -> float
(** NTT + multiply + add + hash FUs. *)

val total : breakdown -> float

val table_rows : breakdown -> (string * float) list
(** The rows of Table II, in the paper's order. *)
