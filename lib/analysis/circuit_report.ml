module R1cs = Zk_r1cs.R1cs
module Sparse = Zk_r1cs.Sparse

(* Structure reports: the shape facts the performance model consumes.
   NoCap's SpMV mapping (paper Sec. V-A) wins exactly when the R1CS matrices
   have O(1) nonzeros per row and limited bandwidth; this module measures
   both per shipped circuit so the claims in lib/perf rest on measured
   workload structure instead of assumed constants. *)

type matrix_stats = {
  nnz : int;
  rows_nonempty : int;
  row_nnz_max : int;
  row_nnz_mean : float;  (** over the real constraint rows *)
  band_max : int;
  band_mean : float;
  band_within_64 : float;  (** fraction of nonzeros with [|col - row| <= 64] *)
}

type fanout_stats = {
  live_vars : int;  (** live witness + live io columns *)
  unused_vars : int;  (** live columns with zero occurrences *)
  fanout_max : int;
  fanout_mean : float;  (** occurrences across A, B, C per live column *)
}

type t = {
  name : string;
  log_size : int;
  num_constraints : int;
  num_witness : int;
  num_io : int;
  total_nnz : int;
  density_factor : float;  (** total nonzeros per constraint row *)
  a : matrix_stats;
  b : matrix_stats;
  c : matrix_stats;
  fanout : fanout_stats;
}

let matrix_stats (m : Sparse.t) ~num_rows =
  let row_nnz = Array.make (max num_rows 1) 0 in
  let nnz = ref 0 in
  let in_band = ref 0 in
  Seq.iter
    (fun (r, c, _) ->
      incr nnz;
      if r < num_rows then row_nnz.(r) <- row_nnz.(r) + 1;
      if abs (c - r) <= 64 then incr in_band)
    (Sparse.entries m);
  let band_max, band_mean = Sparse.bandwidth_profile m in
  let nonempty = Array.fold_left (fun acc k -> if k > 0 then acc + 1 else acc) 0 row_nnz in
  let max_nnz = Array.fold_left max 0 row_nnz in
  {
    nnz = !nnz;
    rows_nonempty = nonempty;
    row_nnz_max = max_nnz;
    row_nnz_mean = (if num_rows = 0 then 0.0 else float_of_int !nnz /. float_of_int num_rows);
    band_max;
    band_mean;
    band_within_64 =
      (if !nnz = 0 then 1.0 else float_of_int !in_band /. float_of_int !nnz);
  }

let of_instance ?(name = "circuit") (inst : R1cs.instance) =
  let n = R1cs.size inst in
  let half = n / 2 in
  let nc = inst.num_constraints in
  let occ = Array.make n 0 in
  let count m =
    Seq.iter (fun (_, c, _) -> occ.(c) <- occ.(c) + 1) (Sparse.entries m)
  in
  count inst.a;
  count inst.b;
  count inst.c;
  let live_vars = inst.num_witness + inst.num_io in
  let total_occ = ref 0 and unused = ref 0 and fan_max = ref 0 in
  let visit j =
    total_occ := !total_occ + occ.(j);
    if occ.(j) = 0 then incr unused;
    if occ.(j) > !fan_max then fan_max := occ.(j)
  in
  for j = 0 to inst.num_witness - 1 do
    visit j
  done;
  for k = 0 to inst.num_io - 1 do
    visit (half + k)
  done;
  {
    name;
    log_size = inst.log_size;
    num_constraints = nc;
    num_witness = inst.num_witness;
    num_io = inst.num_io;
    total_nnz = R1cs.nnz inst;
    density_factor =
      (if nc = 0 then 0.0 else float_of_int (R1cs.nnz inst) /. float_of_int nc);
    a = matrix_stats inst.a ~num_rows:nc;
    b = matrix_stats inst.b ~num_rows:nc;
    c = matrix_stats inst.c ~num_rows:nc;
    fanout =
      {
        live_vars;
        unused_vars = !unused;
        fanout_max = !fan_max;
        fanout_mean =
          (if live_vars = 0 then 0.0
           else float_of_int !total_occ /. float_of_int live_vars);
      };
  }

let summary t =
  Printf.sprintf
    "%s: 2^%d, %d rows, %d wit + %d io, nnz %d (density %.2f), band max \
     %d/%d/%d, fanout max %d mean %.2f"
    t.name t.log_size t.num_constraints t.num_witness t.num_io t.total_nnz
    t.density_factor t.a.band_max t.b.band_max t.c.band_max t.fanout.fanout_max
    t.fanout.fanout_mean

let matrix_to_json m =
  Zk_util.Json_min.(
    Obj
      [
        ("nnz", Num (float_of_int m.nnz));
        ("rows_nonempty", Num (float_of_int m.rows_nonempty));
        ("row_nnz_max", Num (float_of_int m.row_nnz_max));
        ("row_nnz_mean", Num m.row_nnz_mean);
        ("band_max", Num (float_of_int m.band_max));
        ("band_mean", Num m.band_mean);
        ("band_within_64", Num m.band_within_64);
      ])

let to_json t =
  let int n = Zk_util.Json_min.Num (float_of_int n) in
  Zk_util.Json_min.(
    Obj
      [
        ("name", Str t.name);
        ("log_size", int t.log_size);
        ("num_constraints", int t.num_constraints);
        ("num_witness", int t.num_witness);
        ("num_io", int t.num_io);
        ("total_nnz", int t.total_nnz);
        ("density_factor", Num t.density_factor);
        ("a", matrix_to_json t.a);
        ("b", matrix_to_json t.b);
        ("c", matrix_to_json t.c);
        ( "fanout",
          Obj
            [
              ("live_vars", int t.fanout.live_vars);
              ("unused_vars", int t.fanout.unused_vars);
              ("fanout_max", int t.fanout.fanout_max);
              ("fanout_mean", Num t.fanout.fanout_mean);
            ] );
      ])
