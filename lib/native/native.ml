type mode =
  | Off
  | On

let mode_to_string = function Off -> "off" | On -> "on"

let parse_mode s =
  match String.lowercase_ascii (String.trim s) with
  | "0" | "off" -> Ok Off
  | "1" | "on" | "auto" | "simd" -> Ok On
  | other ->
    Error (Printf.sprintf "invalid NOCAP_NATIVE %S (expected 0|off|1|on|auto|simd)" other)

external cpu_features : unit -> int = "caml_nocap_cpu_features" [@@noalloc]
external set_simd : int -> unit = "caml_nocap_set_simd" [@@noalloc]

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

(* The C-side [g_simd] level starts at 0, so [set_mode] must run before
   any SIMD kernel can fire; the lazy default below covers programs that
   never resolve an [Engine] (tests, bare library users).
   [Engine.Config.of_env] parses the same variable with loud errors and
   re-applies it here. [simd] mirrors the level: 2 every SIMD tier, 1 up
   to AVX2/NEON, 0 scalar C only. *)
let current = ref None
let simd = ref 0

let set_simd_level l =
  simd := l;
  set_simd l

let set_mode m =
  current := Some m;
  set_simd_level (match m with On -> 2 | Off -> 0)

let default_mode () =
  match Sys.getenv_opt "NOCAP_NATIVE" with
  | None -> On
  | Some s -> ( match parse_mode s with Ok m -> m | Error _ -> On)

let mode () =
  match !current with
  | Some m -> m
  | None ->
    let m = default_mode () in
    set_mode m;
    m

let on () = mode () <> Off

let with_mode m f =
  let prev = mode () in
  set_mode m;
  Fun.protect ~finally:(fun () -> set_mode prev) f

let with_simd_level l f =
  with_mode On (fun () ->
      set_simd_level l;
      f ())

let with_scalar_c f = with_simd_level 0 f
let with_avx2_only f = with_simd_level 1 f

let keccak_lanes () =
  if not (on ()) then 1
  else if !simd >= 2 && have_avx512f () then 8
  else if !simd >= 1 && have_avx2 () then 4
  else 1

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
