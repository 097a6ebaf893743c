(** Circuit structure reports: the shape facts NoCap's performance model
    depends on, measured per workload.

    The paper's SpMV mapping (Sec. V-A) assumes the R1CS matrices have O(1)
    nonzeros per row and limited bandwidth. This module computes those
    distributions — per-matrix row density, bandwidth profile and locality,
    plus the variable fan-out — so {!Zk_perf.Structure} can cross-check the
    density factors the simulator uses against measured circuits, and the
    [analysis] bench can ship them as [BENCH_analysis.json]. *)

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

val of_instance : ?name:string -> Zk_r1cs.R1cs.instance -> t

val summary : t -> string
(** One human-readable line. *)

val to_json : t -> Zk_util.Json_min.json
(** One JSON object — the [report] member of each [circuits] element of the
    [nocap-bench-analysis/v1] schema. *)
