(* Boxed Bailey four-step NTT over [Gf.t array]: the reference the flat
   [Zk_ntt.Ntt.Gf_fv.four_step_forward] mirrors pass for pass (same
   operation order, so the two are bit-identical), built on the boxed
   [Gf_ntt] transforms. Serial. *)

module Gf = Zk_field.Gf
module Ntt = Zk_ntt.Ntt.Gf_ntt

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
  let log_n =
    let rec go k m = if m = 1 then k else go (k + 1) (m lsr 1) in
    go 0 n
  in
  let w = Gf.root_of_unity log_n in
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
