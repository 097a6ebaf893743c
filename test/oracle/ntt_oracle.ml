(* Bailey's four-step NTT of a [rows * cols] matrix held row-major:
   column transforms, twiddle scaling, row transforms, transpose. This is
   the decomposition NoCap's 64-lane NTT FU uses for transforms larger than
   2^12 (Sec. V-A); the result equals the flat forward transform of the
   whole vector. Two forms, kept out of lib/ because no prover or verifier
   runs it: a boxed serial reference over [Gf.t array] on the [Gf_ntt]
   transforms, and [four_step_forward_fv] over a flat buffer on the pool,
   which mirrors the boxed one pass for pass (same operation order, so the
   two are bit-identical). *)

module Gf = Zk_field.Gf
module Ntt = Zk_ntt.Ntt.Gf_ntt
module Gf_fv = Zk_ntt.Ntt.Gf_fv
module Fv = Nocap_vec.Fv
module Arena = Nocap_vec.Arena
module Pool = Nocap_parallel.Pool

let log2_exact n =
  if n <= 0 || n land (n - 1) <> 0 then
    invalid_arg "Ntt_oracle: size must be a power of two";
  let rec go k m = if m = 1 then k else go (k + 1) (m lsr 1) in
  go 0 n

let four_step_forward ~rows ~cols a =
  let n = rows * cols in
  if Array.length a <> n then invalid_arg "Ntt_oracle.four_step_forward: size";
  let col_plan = Ntt.plan rows and row_plan = Ntt.plan cols in
  (* Step 1: NTT down each column (stride [cols] in the row-major layout). *)
  let out = Array.copy a in
  let col = Array.make rows Gf.zero in
  for c = 0 to cols - 1 do
    for r = 0 to rows - 1 do
      col.(r) <- out.((r * cols) + c)
    done;
    Ntt.forward col_plan col;
    for r = 0 to rows - 1 do
      out.((r * cols) + c) <- col.(r)
    done
  done;
  (* Step 2: scale entry (r, c) by w^(r*c), w the primitive n-th root; the
     power runs as a chain along each row. *)
  let w = Gf.root_of_unity (log2_exact n) in
  let w_r = ref Gf.one in
  for r = 0 to rows - 1 do
    let f = ref Gf.one in
    for c = 0 to cols - 1 do
      out.((r * cols) + c) <- Gf.mul out.((r * cols) + c) !f;
      f := Gf.mul !f !w_r
    done;
    w_r := Gf.mul !w_r w
  done;
  (* Step 3: NTT along each row. *)
  let row = Array.make cols Gf.zero in
  for r = 0 to rows - 1 do
    Array.blit out (r * cols) row 0 cols;
    Ntt.forward row_plan row;
    Array.blit row 0 out (r * cols) cols
  done;
  (* Step 4: transpose, so output index k = c * rows + r holds X_k. *)
  Array.init n (fun k -> out.(((k mod rows) * cols) + (k / rows)))

(* A butterfly costs ~3ns in the C kernel. *)
let ntt_grain m = Pool.grain_of_ns (max 1 (m / 2 * log2_exact m * 3))

(* Scale bases w^0 .. w^(rows-1) for the primitive (rows*cols)-th root. *)
let scale_rows ~rows ~cols =
  let w = Gf.root_of_unity (log2_exact (rows * cols)) in
  let w_rows = Fv.create rows in
  Fv.set w_rows 0 Gf.one;
  for r = 1 to rows - 1 do
    Fv.set w_rows r (Gf.mul (Fv.get w_rows (r - 1)) w)
  done;
  w_rows

let four_step_forward_fv ~rows ~cols (a : Fv.t) : Fv.t =
  let n = rows * cols in
  if Fv.length a <> n then invalid_arg "Ntt_oracle.four_step_forward_fv: size";
  ignore (log2_exact n);
  let col_plan = Gf_fv.plan rows and row_plan = Gf_fv.plan cols in
  let out = Fv.copy a in
  (* Step 1: column NTTs (stride [cols]); each chunk gathers into arena
     scratch owned by the executing domain. *)
  Pool.run ~grain:(ntt_grain rows) ~n:cols (fun c_lo c_hi ->
      Arena.with_frame (fun () ->
          let col = Arena.alloc rows in
          for c = c_lo to c_hi - 1 do
            for r = 0 to rows - 1 do
              Fv.unsafe_set col r (Fv.unsafe_get out ((r * cols) + c))
            done;
            Gf_fv.forward col_plan col;
            for r = 0 to rows - 1 do
              Fv.unsafe_set out ((r * cols) + c) (Fv.unsafe_get col r)
            done
          done));
  (* Step 2: twiddle scale by w^(r*c) (the running power f stays a serial
     chain within each row, so chunked rows start mid-sequence without
     recomputation). *)
  let w_rows = scale_rows ~rows ~cols in
  Pool.run ~grain:(Pool.grain_of_ns (max 1 (cols * 6))) ~n:rows (fun r_lo r_hi ->
      for r = r_lo to r_hi - 1 do
        let w_r = Fv.unsafe_get w_rows r in
        let f = ref Gf.one in
        for c = 0 to cols - 1 do
          Fv.unsafe_set out ((r * cols) + c) (Gf.mul (Fv.unsafe_get out ((r * cols) + c)) !f);
          f := Gf.mul !f w_r
        done
      done);
  (* Step 3: row NTTs, in place (rows are contiguous). *)
  Pool.run ~grain:(ntt_grain cols) ~n:rows (fun r_lo r_hi ->
      for r = r_lo to r_hi - 1 do
        Gf_fv.forward row_plan (Fv.sub_view out ~pos:(r * cols) ~len:cols)
      done);
  (* Step 4: transpose into the flat transform's output order. *)
  let res = Fv.create n in
  Pool.run ~grain:(Pool.grain_of_ns (max 1 (cols * 4))) ~n:rows (fun r_lo r_hi ->
      for r = r_lo to r_hi - 1 do
        for c = 0 to cols - 1 do
          Fv.unsafe_set res ((c * rows) + r) (Fv.unsafe_get out ((r * cols) + c))
        done
      done);
  res
