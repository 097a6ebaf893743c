(** The program corpus the analysis pass guards: every ISA program generator
    in the stack ({!Nocap_model.Kernels}, {!Nocap_model.Spmv_compile}),
    bundled with the VM sizing it needs, plus one-call verification that
    lints the program and checks its {!Nocap_model.Schedule.run} schedule.

    This is what the [nocap-cli lint] subcommand, the benchmark harness's
    [lint] report item, and the test suite all drive. *)

type entry = {
  name : string;
  vector_len : int;
  program : Nocap_model.Isa.program;
  num_regs : int;  (** register-file size the program needs *)
  mem_slots : int;  (** memory slots the program needs *)
}

type verdict = {
  entry : entry;
  lint : Lint.report;
  schedule : Nocap_model.Schedule.schedule;
  check : Check.report;
}

val of_spmv : name:string -> vector_len:int -> Zk_r1cs.Sparse.t -> entry
(** Compile the matrix with {!Nocap_model.Spmv_compile.compile} and wrap the
    resulting program. The matrix dimensions must be multiples of
    [vector_len]. *)

val kernels : vector_len:int -> entry list
(** Every {!Nocap_model.Kernels} generator at the given vector length:
    elementwise multiply, sumcheck round, Merkle level, cyclic polynomial
    product, the reduce-add tree (wrapped with a load and a store), and the
    four-step NTT on a [rows * cols = vector_len] split. Requires
    [vector_len >= 8] (the Merkle kernel hashes digest pairs of 8 lanes). *)

val verify : Nocap_model.Config.t -> entry -> verdict
(** Lint the program (against its own register/slot sizing), schedule it with
    {!Nocap_model.Schedule.run}, and check the schedule. *)

val verify_all : Nocap_model.Config.t -> entry list -> verdict list

val clean : verdict -> bool
(** Both the lint report and the schedule check are error-free. *)

val summary : verdict -> string
