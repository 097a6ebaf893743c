module Gf = Zk_field.Gf
module Builder = Zk_r1cs.Builder
module Gadgets = Zk_r1cs.Gadgets

type expr =
  | Const of int64
  | Var of string
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Eq of expr * expr
  | Lt of int * expr * expr
  | And of expr * expr
  | Or of expr * expr
  | Not of expr
  | If of expr * expr * expr
  | Let of string * expr * expr

type stmt =
  | Assert_eq of expr * expr
  | Assert_bool of expr
  | Reveal of string * expr

type program = stmt list

type env = {
  inputs : (string * int64) list;
  secrets : (string * int64) list;
}

(* --- reference interpreter --- *)

let as_bool name v =
  if Gf.equal v Gf.zero then false
  else if Gf.equal v Gf.one then true
  else invalid_arg (Printf.sprintf "Lang: %s is not Boolean" name)

let fits_width w v =
  w >= 1 && w <= 62
  && Int64.unsigned_compare (Gf.to_int64 v) (Int64.shift_left 1L w) < 0

let rec interp bindings expr =
  match expr with
  | Const c -> Gf.of_int64 c
  | Var name -> (
    match List.assoc_opt name bindings with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Lang: unbound name %s" name))
  | Add (a, b) -> Gf.add (interp bindings a) (interp bindings b)
  | Sub (a, b) -> Gf.sub (interp bindings a) (interp bindings b)
  | Mul (a, b) -> Gf.mul (interp bindings a) (interp bindings b)
  | Eq (a, b) ->
    if Gf.equal (interp bindings a) (interp bindings b) then Gf.one else Gf.zero
  | Lt (w, a, b) ->
    let va = interp bindings a and vb = interp bindings b in
    if not (fits_width w va && fits_width w vb) then
      invalid_arg "Lang: Lt operand exceeds its width";
    if Int64.unsigned_compare (Gf.to_int64 va) (Gf.to_int64 vb) < 0 then Gf.one
    else Gf.zero
  | And (a, b) ->
    let va = as_bool "And" (interp bindings a) and vb = as_bool "And" (interp bindings b) in
    if va && vb then Gf.one else Gf.zero
  | Or (a, b) ->
    let va = as_bool "Or" (interp bindings a) and vb = as_bool "Or" (interp bindings b) in
    if va || vb then Gf.one else Gf.zero
  | Not a -> if as_bool "Not" (interp bindings a) then Gf.zero else Gf.one
  | If (c, t, e) ->
    if as_bool "If" (interp bindings c) then interp bindings t else interp bindings e
  | Let (name, bound, body) -> interp ((name, interp bindings bound) :: bindings) body

let base_bindings env =
  List.map (fun (n, v) -> (n, Gf.of_int64 v)) env.inputs
  @ List.map (fun (n, v) -> (n, Gf.of_int64 v)) env.secrets

let interpret env expr = interp (base_bindings env) expr

let interpret_program env program =
  let bindings = base_bindings env in
  List.filter_map
    (fun stmt ->
      match stmt with
      | Assert_eq (a, b) ->
        if not (Gf.equal (interp bindings a) (interp bindings b)) then
          invalid_arg "Lang: assertion failed";
        None
      | Assert_bool e ->
        ignore (as_bool "Assert_bool" (interp bindings e));
        None
      | Reveal (name, e) -> Some (name, interp bindings e))
    program

(* --- compiler --- *)

let compile env program =
  let b = Builder.create () in
  let wires =
    List.map (fun (n, v) -> (n, Builder.input b (Gf.of_int64 v))) env.inputs
    @ List.map (fun (n, v) -> (n, Builder.witness b (Gf.of_int64 v))) env.secrets
  in
  (* Compile an expression to a wire. Values are tracked concretely by the
     builder, so semantic checks (Boolean-ness, widths) mirror the
     interpreter exactly. *)
  let rec comp bindings expr =
    match expr with
    | Const c -> Gadgets.add_lc b (Builder.lc_const (Gf.of_int64 c))
    | Var name -> (
      match List.assoc_opt name bindings with
      | Some w -> w
      | None -> invalid_arg (Printf.sprintf "Lang: unbound name %s" name))
    | Add (x, y) -> Gadgets.add b (comp bindings x) (comp bindings y)
    | Sub (x, y) ->
      let wx = comp bindings x and wy = comp bindings y in
      Gadgets.add_lc b
        (Builder.lc_add (Builder.lc_var wx) (Builder.lc_scale (Gf.neg Gf.one) (Builder.lc_var wy)))
    | Mul (x, y) -> Gadgets.mul b (comp bindings x) (comp bindings y)
    | Eq (x, y) -> Gadgets.equal b (comp bindings x) (comp bindings y)
    | Lt (w, x, y) ->
      let wx = comp bindings x and wy = comp bindings y in
      if not (fits_width w (Builder.value b wx) && fits_width w (Builder.value b wy))
      then invalid_arg "Lang: Lt operand exceeds its width";
      (* Bind the operands to their width so the comparison is sound. *)
      ignore (Gadgets.bits_of b ~width:w wx);
      ignore (Gadgets.bits_of b ~width:w wy);
      Gadgets.less_than b ~width:w wx wy
    | And (x, y) ->
      let wx = bool_wire bindings x and wy = bool_wire bindings y in
      Gadgets.band b wx wy
    | Or (x, y) ->
      let wx = bool_wire bindings x and wy = bool_wire bindings y in
      Gadgets.bor b wx wy
    | Not x -> Gadgets.bnot b (bool_wire bindings x)
    | If (c, t, e) ->
      let wc = bool_wire bindings c in
      Gadgets.select b ~cond:wc (comp bindings t) (comp bindings e)
    | Let (name, bound, body) ->
      let wb = comp bindings bound in
      comp ((name, wb) :: bindings) body
  and bool_wire bindings expr =
    let w = comp bindings expr in
    ignore (as_bool "compile" (Builder.value b w));
    Gadgets.assert_bool b w;
    w
  in
  let outputs = ref [] in
  List.iter
    (fun stmt ->
      match stmt with
      | Assert_eq (x, y) ->
        let wx = comp wires x and wy = comp wires y in
        Gadgets.assert_equal b (Builder.lc_var wx) (Builder.lc_var wy)
      | Assert_bool e -> ignore (bool_wire wires e)
      | Reveal (name, e) ->
        let w = comp wires e in
        let v = Builder.value b w in
        let out = Builder.input b v in
        Gadgets.assert_equal b (Builder.lc_var w) (Builder.lc_var out);
        outputs := (name, v) :: !outputs)
    program;
  let inst, asn = Builder.finalize b in
  (inst, asn, List.rev !outputs)
