module Gf = Zk_field.Gf
module Fv = Nocap_vec.Fv

type var = Witness of int | Io of int

type lc = (var * Gf.t) list

(* A copy twice as long: index buffers and [Fv.t] are both Bigarrays. *)
let grow a =
  let n = Bigarray.Array1.dim a in
  let b = Bigarray.Array1.create (Bigarray.Array1.kind a) Bigarray.c_layout (2 * n) in
  Bigarray.Array1.blit a (Bigarray.Array1.sub b 0 n);
  b

(* One half's wire values, grown by doubling. *)
type wires = { mutable data : Fv.t; mutable len : int }

let push v x =
  if v.len = Fv.length v.data then v.data <- grow v.data;
  Fv.unsafe_set v.data v.len x;
  v.len <- v.len + 1;
  v.len - 1

(* One matrix's terms as flat triplets, rows in constraint order, grown
   by doubling. A column is a witness index [i], or [lnot i] for io slot
   [i] until [finalize] knows where the io half starts. *)
module Terms = struct
  type t = {
    mutable rows : Sparse.ints;
    mutable cols : Sparse.ints;
    mutable vals : Fv.t;
    mutable len : int;
  }

  let create () =
    let ints () = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 64 in
    { rows = ints (); cols = ints (); vals = Fv.create 64; len = 0 }

  let push t row col v =
    if t.len = Fv.length t.vals then begin
      t.rows <- grow t.rows;
      t.cols <- grow t.cols;
      t.vals <- grow t.vals
    end;
    Bigarray.Array1.unsafe_set t.rows t.len row;
    Bigarray.Array1.unsafe_set t.cols t.len col;
    Fv.unsafe_set t.vals t.len v;
    t.len <- t.len + 1

  (* The io tags resolve into a copy of the columns, so the builder can
     take more constraints and be finalized again. *)
  let to_sparse t ~n =
    let cols = Bigarray.Array1.create Bigarray.int Bigarray.c_layout t.len in
    for i = 0 to t.len - 1 do
      let c = Bigarray.Array1.unsafe_get t.cols i in
      Bigarray.Array1.unsafe_set cols i (if c < 0 then (n / 2) + lnot c else c)
    done;
    Sparse.of_triplets ~nrows:n ~ncols:n (Bigarray.Array1.sub t.rows 0 t.len) cols
      (Fv.sub_view t.vals ~pos:0 ~len:t.len)
end

type t = {
  wvals : wires;
  iovals : wires;
  terms : Terms.t array; (* A, B, C *)
  mutable n_constraints : int;
}

let create () =
  let terms = Array.init 3 (fun _ -> Terms.create ()) in
  let wires () = { data = Fv.create 16; len = 0 } in
  let b = { wvals = wires (); iovals = wires (); terms; n_constraints = 0 } in
  ignore (push b.iovals Gf.one);
  b

let one = Io 0

let input t v = Io (push t.iovals v)

let witness t v = Witness (push t.wvals v)

let value t var =
  let v, i = match var with Witness i -> (t.wvals, i) | Io i -> (t.iovals, i) in
  if i >= v.len then invalid_arg "Builder: variable out of range";
  Fv.unsafe_get v.data i

let lc_var v = [ (v, Gf.one) ]

let lc_const k = if Gf.equal k Gf.zero then [] else [ (one, k) ]

let lc_scale k lc =
  if Gf.equal k Gf.zero then []
  else List.map (fun (v, c) -> (v, Gf.mul k c)) lc

let lc_add a b = a @ b

let lc_value t lc =
  List.fold_left (fun acc (v, c) -> Gf.add acc (Gf.mul c (value t v))) Gf.zero lc

let constrain t a b c =
  let va = lc_value t a and vb = lc_value t b and vc = lc_value t c in
  if not (Gf.equal (Gf.mul va vb) vc) then
    invalid_arg
      (Printf.sprintf "Builder.constrain: unsatisfied constraint %d (%s * %s <> %s)"
         t.n_constraints (Gf.to_string va) (Gf.to_string vb) (Gf.to_string vc));
  let row = t.n_constraints in
  List.iteri
    (fun k lc ->
      List.iter
        (fun (v, coeff) ->
          Terms.push t.terms.(k) row (match v with Witness i -> i | Io i -> lnot i) coeff)
        lc)
    [ a; b; c ];
  t.n_constraints <- row + 1

let num_constraints t = t.n_constraints

let num_witness t = t.wvals.len

let finalize t =
  let nw = t.wvals.len and nio = t.iovals.len in
  let half_min = 1 lsl Zk_util.Pow2.log2_ceil (max 1 (max nw nio)) in
  let log_size = Zk_util.Pow2.log2_ceil (max (max 2 t.n_constraints) (2 * half_min)) in
  let n = 1 lsl log_size in
  let half = n / 2 in
  let m k = Terms.to_sparse t.terms.(k) ~n in
  let inst =
    R1cs.make ~a:(m 0) ~b:(m 1) ~c:(m 2) ~log_size ~num_constraints:t.n_constraints
      ~num_witness:nw ~num_io:nio
  in
  (* A fresh z per call, so finalizing again leaves an earlier one alone. *)
  let z = Fv.create n in
  Fv.zero z;
  Fv.blit ~src:t.wvals.data ~src_pos:0 ~dst:z ~dst_pos:0 ~len:nw;
  Fv.blit ~src:t.iovals.data ~src_pos:0 ~dst:z ~dst_pos:half ~len:nio;
  (inst, z)
