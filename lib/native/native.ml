type mode =
  | Scalar
  | Neon
  | Avx2
  | Avx512f

let mode_to_string = function
  | Scalar -> "scalar"
  | Neon -> "neon"
  | Avx2 -> "avx2"
  | Avx512f -> "avx512f"

external cpu_features : unit -> int = "caml_nocap_cpu_features" [@@noalloc]
external simd_level : unit -> int = "caml_nocap_simd_level" [@@noalloc]
external set_simd_level : int -> unit = "caml_nocap_set_simd" [@@noalloc]

let have_avx2 () = cpu_features () land 1 <> 0
let have_neon () = cpu_features () land 2 <> 0
let have_avx512f () = cpu_features () land 4 <> 0

let features_to_string () =
  match
    List.filter_map
      (fun (have, name) -> if have () then Some name else None)
      [ (have_avx2, "avx2"); (have_avx512f, "avx512f"); (have_neon, "neon") ]
  with
  | [] -> "none"
  | names -> String.concat "+" names

(* The level lives on the C side ([g_simd], 2 from process start): 2 every
   SIMD tier, 1 up to AVX2/NEON, 0 scalar C only. Reading it back from C
   means [mode] reports what the kernels will actually run. *)
let mode () =
  let l = simd_level () in
  if l >= 2 && have_avx512f () then Avx512f
  else if l >= 1 && have_avx2 () then Avx2
  else if l >= 1 && have_neon () then Neon
  else Scalar

let with_simd_level l f =
  let prev = simd_level () in
  set_simd_level l;
  Fun.protect ~finally:(fun () -> set_simd_level prev) f

let with_scalar_c f = with_simd_level 0 f
let with_avx2_only f = with_simd_level 1 f

let keccak_lanes () = match mode () with Avx512f -> 8 | Avx2 -> 4 | Neon | Scalar -> 1

type fv = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

external fv_add : fv -> fv -> fv -> unit = "caml_nocap_fv_add" [@@noalloc]
external fv_sub : fv -> fv -> fv -> unit = "caml_nocap_fv_sub" [@@noalloc]
external fv_mul : fv -> fv -> fv -> unit = "caml_nocap_fv_mul" [@@noalloc]
external fv_scale : fv -> fv -> int64 -> unit = "caml_nocap_fv_scale" [@@noalloc]
external fv_axpy : fv -> int64 -> fv -> unit = "caml_nocap_fv_axpy" [@@noalloc]
external fv_lerp : fv -> fv -> fv -> int64 -> unit = "caml_nocap_fv_lerp" [@@noalloc]
external fri_fold : fv -> fv -> fv -> int64 -> int64 -> unit = "caml_nocap_fri_fold" [@@noalloc]
external sumcheck_round : int -> fv array -> fv array -> int -> int -> int64 -> fv -> unit
  = "caml_nocap_sumcheck_round_byte" "caml_nocap_sumcheck_round"
[@@noalloc]

external csr_eval : int array -> int array -> fv -> fv -> fv -> fv -> fv -> (int64[@unboxed])
  = "caml_nocap_csr_eval_byte" "caml_nocap_csr_eval"
[@@noalloc]

external ntt_forward : fv -> fv -> unit = "caml_nocap_ntt_forward" [@@noalloc]
external ntt_inverse : fv -> fv -> int64 -> unit = "caml_nocap_ntt_inverse" [@@noalloc]
external rs_encode_row : fv -> fv -> fv -> unit = "caml_nocap_rs_encode_row" [@@noalloc]
external f1600_off : fv -> int -> unit = "caml_nocap_f1600_off" [@@noalloc]
external sha3 : Bytes.t -> int -> Bytes.t -> unit = "caml_nocap_sha3" [@@noalloc]
external hash_nodes : fv -> fv -> int -> int -> unit = "caml_nocap_hash_nodes" [@@noalloc]
external sha3_blocks : fv -> fv -> int -> int -> unit = "caml_nocap_sha3_blocks" [@@noalloc]

external hash_cols : fv -> int -> int -> fv -> int -> int -> unit
  = "caml_nocap_hash_cols_byte" "caml_nocap_hash_cols"
[@@noalloc]

external col_absorb : fv -> fv -> int -> int -> int -> int -> int -> unit
  = "caml_nocap_col_absorb_byte" "caml_nocap_col_absorb"
[@@noalloc]

external gl_pow : int64 -> int64 -> int64 = "caml_nocap_gl_pow"
external spill_io : Unix.file_descr -> fv -> int -> bool -> unit = "caml_nocap_spill_io"

let pread fd dst off = spill_io fd dst off false
let pwrite fd src off = spill_io fd src off true
