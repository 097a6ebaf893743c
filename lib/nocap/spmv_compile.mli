(** Compile-time SpMV scheduling (Sec. V-A).

    NoCap computes [y = A x] with an output-stationary dataflow: the output
    is produced chunk by chunk; for each output chunk the input chunks that
    contribute to it are loaded (exploiting the matrices' limited bandwidth
    for reuse), the Benes network aligns the input elements with the output
    lanes they feed, the streamed matrix values multiply the aligned
    operands, and partial products accumulate in place. Because the sparsity
    pattern is known at compile time, the nonzeros are emitted in exactly the
    order consumed — no coordinate storage, no cache.

    [compile] produces a real {!Isa.program} implementing this schedule; the
    tests execute it on the {!Vm} and compare against a reference SpMV,
    and check the traffic claims (each matrix value read exactly once, input
    chunks reused rather than reloaded). *)

type schedule = {
  program : Isa.program;
  x_slots : int array; (** memory slots the caller fills with x's chunks *)
  coeff_slots : int list; (** slots holding the streamed matrix values *)
  coeff_data : Zk_field.Gf.t array list; (** contents for those slots *)
  y_slot_base : int; (** output chunk c lands in slot [y_slot_base + c] *)
  num_y_chunks : int;
  x_chunk_loads : int; (** input-chunk loads issued (measures reuse) *)
  matrix_values_streamed : int; (** total coefficient elements streamed *)
}

val compile : vector_len:int -> Zk_r1cs.Sparse.t -> schedule
(** The matrix's dimensions must be multiples of [vector_len].
    Register budget: 6 registers regardless of matrix size. *)

val run : Vm.t -> schedule -> Zk_field.Gf.t array -> Zk_field.Gf.t array
(** Load [x], execute the schedule, gather [y] (convenience for tests and
    benchmarks). *)
