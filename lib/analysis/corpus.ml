module Isa = Nocap_model.Isa
module Schedule = Nocap_model.Schedule
module Kernels = Nocap_model.Kernels
module Spmv_compile = Nocap_model.Spmv_compile

type entry = {
  name : string;
  vector_len : int;
  program : Isa.program;
  num_regs : int;
  mem_slots : int;
}

type verdict = {
  entry : entry;
  lint : Lint.report;
  schedule : Schedule.schedule;
  check : Check.report;
}

(* The VM sizing (registers, memory slots) derived from the program itself. *)
let of_program ~name ~vector_len program =
  let max_reg =
    List.fold_left
      (fun acc instr ->
        let acc = List.fold_left max acc (Isa.reads instr) in
        match Isa.writes instr with Some d -> max acc d | None -> acc)
      (-1) program
  in
  {
    name;
    vector_len;
    program;
    num_regs = max_reg + 1;
    mem_slots = Lint.min_mem_slots program;
  }

let of_spmv ~name ~vector_len m =
  let sched = Spmv_compile.compile ~vector_len m in
  of_program ~name ~vector_len sched.Spmv_compile.program

let kernels ~vector_len =
  if vector_len < 8 || vector_len land (vector_len - 1) <> 0 then
    invalid_arg "Corpus.kernels: vector_len must be a power of two >= 8";
  let k = vector_len in
  let log_k =
    let rec go a m = if m <= 1 then a else go (a + 1) (m / 2) in
    go 0 k
  in
  let cols = 1 lsl (log_k / 2) in
  let rows = k / cols in
  let four_step, _twiddles = Kernels.four_step_ntt ~rows ~cols in
  let reduce_add =
    (Isa.Vload (0, 0) :: Kernels.reduce_add_program ~vector_len:k ~src:0 ~scratch:1)
    @ [ Isa.Vstore (1, 0) ]
  in
  [
    of_program ~name:"elementwise-mul" ~vector_len:k
      Kernels.elementwise_mul.Kernels.program;
    of_program ~name:"sumcheck-round" ~vector_len:k
      (Kernels.sumcheck_round ~vector_len:k).Kernels.program;
    of_program ~name:"merkle-level" ~vector_len:k
      (Kernels.merkle_level ~vector_len:k).Kernels.program;
    of_program ~name:"poly-mul-cyclic" ~vector_len:k
      Kernels.poly_mul_cyclic.Kernels.program;
    of_program ~name:"reduce-add" ~vector_len:k reduce_add;
    of_program
      ~name:(Printf.sprintf "four-step-ntt-%dx%d" rows cols)
      ~vector_len:k four_step.Kernels.program;
  ]

let verify config entry =
  let lint =
    Lint.lint ~num_regs:entry.num_regs ~mem_slots:entry.mem_slots
      ~vector_len:entry.vector_len entry.program
  in
  let schedule = Schedule.run config ~vector_len:entry.vector_len entry.program in
  let check = Check.check config ~vector_len:entry.vector_len entry.program schedule in
  { entry; lint; schedule; check }

let verify_all config entries = List.map (verify config) entries

let clean v = Lint.is_clean v.lint && Check.is_clean v.check

let summary v =
  Printf.sprintf "%s (k=%d):\n  lint: %s\n  schedule: %s" v.entry.name
    v.entry.vector_len (Lint.summary v.lint) (Check.summary v.check)
