module Gf = Zk_field.Gf
module Builder = Zk_r1cs.Builder
module Gadgets = Zk_r1cs.Gadgets

type op = Load of int | Store of int * int

let reference ~init ops =
  let mem = Array.copy init in
  let reads =
    List.filter_map
      (fun op ->
        match op with
        | Load a -> Some mem.(a)
        | Store (a, v) ->
          mem.(a) <- v;
          None)
      ops
  in
  (reads, mem)

let bits_for n =
  let rec go b = if 1 lsl b > n then b else go (b + 1) in
  go 1

(* One multiset accumulator per challenge pair. *)
type accs = {
  gamma_w : Builder.var;
  delta_w : Builder.var;
  delta2_w : Builder.var;
  mutable rs : Builder.var;
  mutable ws : Builder.var;
}

let build b ~challenges ~init ops =
  let m = Array.length init in
  if m = 0 then invalid_arg "Memory_check.build: empty memory";
  let t_count = List.length ops in
  let ts_bits = bits_for (t_count + 1) in
  let one_wire = Gadgets.add_lc b (Builder.lc_const Gf.one) in
  let accs =
    Array.map
      (fun (gamma, delta) ->
        let gamma_w = Builder.input b gamma in
        let delta_w = Builder.input b delta in
        let delta2_w = Gadgets.mul b delta_w delta_w in
        { gamma_w; delta_w; delta2_w; rs = one_wire; ws = one_wire })
      challenges
  in
  (* Accumulate one (addr, value, ts) tuple into an accumulator wire:
     acc' = acc * (gamma - addr - delta*value - delta^2*ts). *)
  let accumulate (a : accs) acc ~addr_lc ~value ~ts_lc =
    let dv = Gadgets.mul b a.delta_w value in
    let d2t = Gadgets.mul_lc b (Builder.lc_var a.delta2_w) ts_lc in
    let factor_lc =
      Builder.lc_add (Builder.lc_var a.gamma_w)
        (Builder.lc_scale (Gf.neg Gf.one)
           (Builder.lc_add addr_lc
              (Builder.lc_add (Builder.lc_var dv) (Builder.lc_var d2t))))
    in
    Gadgets.mul_lc b (Builder.lc_var acc) factor_lc
  in
  (* Init and Final multisets: one tuple per cell. *)
  let init_wires = Array.map (fun v -> Builder.input b (Gf.of_int v)) init in
  let init_accs =
    Array.map
      (fun a ->
        Array.to_list init_wires
        |> List.mapi (fun addr w -> (addr, w))
        |> List.fold_left
             (fun acc (addr, w) ->
               accumulate a acc
                 ~addr_lc:(Builder.lc_const (Gf.of_int addr))
                 ~value:w ~ts_lc:(Builder.lc_const Gf.zero))
             one_wire)
      accs
  in
  (* Host-side simulation supplying the witness (value, timestamp) pairs. *)
  let sim_val = Array.map (fun v -> Gf.of_int v) init in
  let sim_ts = Array.make m 0 in
  let reads = ref [] in
  List.iteri
    (fun i op ->
      let ts = i + 1 in
      let addr = match op with Load a | Store (a, _) -> a in
      if addr < 0 || addr >= m then invalid_arg "Memory_check.build: address out of range";
      let addr_w = Builder.witness b (Gf.of_int addr) in
      ignore (Gadgets.bits_of b ~width:(bits_for (m - 1)) addr_w);
      let rval_w = Builder.witness b sim_val.(addr) in
      let rts_w = Builder.witness b (Gf.of_int sim_ts.(addr)) in
      (* Read timestamp strictly precedes this access. *)
      let ts_wire = Gadgets.add_lc b (Builder.lc_const (Gf.of_int ts)) in
      let lt = Gadgets.less_than b ~width:ts_bits rts_w ts_wire in
      Gadgets.assert_equal b (Builder.lc_var lt) (Builder.lc_const Gf.one);
      let wval_w =
        match op with
        | Load _ ->
          reads := rval_w :: !reads;
          rval_w
        | Store (_, v) -> Builder.witness b (Gf.of_int v)
      in
      Array.iter
        (fun a ->
          a.rs <-
            accumulate a a.rs ~addr_lc:(Builder.lc_var addr_w) ~value:rval_w
              ~ts_lc:(Builder.lc_var rts_w);
          a.ws <-
            accumulate a a.ws ~addr_lc:(Builder.lc_var addr_w) ~value:wval_w
              ~ts_lc:(Builder.lc_const (Gf.of_int ts)))
        accs;
      (match op with Store (a, v) -> sim_val.(a) <- Gf.of_int v | Load _ -> ());
      sim_ts.(addr) <- ts)
    ops;
  (* Final multiset: the closing read of every cell. The witnesses and their
     range checks are shared; only the accumulation repeats per
     instantiation. *)
  let final_tuples =
    Array.init m (fun addr ->
        let fval_w = Builder.witness b sim_val.(addr) in
        let fts_w = Builder.witness b (Gf.of_int sim_ts.(addr)) in
        let bound = Gadgets.add_lc b (Builder.lc_const (Gf.of_int (t_count + 1))) in
        let lt = Gadgets.less_than b ~width:ts_bits fts_w bound in
        Gadgets.assert_equal b (Builder.lc_var lt) (Builder.lc_const Gf.one);
        (addr, fval_w, fts_w))
  in
  let final_accs =
    Array.map
      (fun a ->
        Array.fold_left
          (fun acc (addr, fval_w, fts_w) ->
            accumulate a acc
              ~addr_lc:(Builder.lc_const (Gf.of_int addr))
              ~value:fval_w ~ts_lc:(Builder.lc_var fts_w))
          one_wire final_tuples)
      accs
  in
  (* The memory-consistency equation, per instantiation:
     Init * WS = RS * Final. *)
  Array.iteri
    (fun i a ->
      let lhs = Gadgets.mul b init_accs.(i) a.ws in
      let rhs = Gadgets.mul b a.rs final_accs.(i) in
      Gadgets.assert_equal b (Builder.lc_var lhs) (Builder.lc_var rhs))
    accs;
  List.rev !reads

let circuit ?(value_bits = 16) ~challenges ~init ops () =
  ignore value_bits;
  let b = Builder.create () in
  let reads = build b ~challenges ~init ops in
  List.iter
    (fun r ->
      let out = Builder.input b (Builder.value b r) in
      Gadgets.assert_equal b (Builder.lc_var r) (Builder.lc_var out))
    reads;
  Builder.finalize b

let constraints_per_access ~memory =
  (* Address range check + timestamp comparison + per-instantiation tuple
     flattening and accumulation; memory size only enters through the address
     width. *)
  let addr_bits = bits_for (max 1 (memory - 1)) in
  addr_bits + 1 + 20 + (4 * 6)

let multiplexer_constraints_per_access ~memory =
  (* One-hot selector bits + sum-to-one + gated read + conditional write. *)
  (3 * memory) + 2
