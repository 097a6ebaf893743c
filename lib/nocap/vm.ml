module Gf = Zk_field.Gf
module Ntt = Zk_ntt.Ntt.Gf_ntt
module Keccak = Zk_hash.Keccak
module Fv = Nocap_vec.Fv

type t = {
  k : int;
  regs : Gf.t array array;
  mem : Gf.t array array;
}

let create ~vector_len ~num_regs ~mem_slots =
  if vector_len < 4 || vector_len land (vector_len - 1) <> 0 then
    invalid_arg "Vm.create: vector_len must be a power of two >= 4";
  {
    k = vector_len;
    regs = Array.init num_regs (fun _ -> Array.make vector_len Gf.zero);
    mem = Array.init mem_slots (fun _ -> Array.make vector_len Gf.zero);
  }

let vector_len t = t.k

let write_mem t slot v =
  if Array.length v <> t.k then invalid_arg "Vm.write_mem: length";
  t.mem.(slot) <- Array.copy v

let read_mem t slot = Array.copy t.mem.(slot)

let read_reg t r = Array.copy t.regs.(r)

let write_reg t r v =
  if r < 0 || r >= Array.length t.regs then invalid_arg "Vm.write_reg: bad register";
  if Array.length v <> t.k then invalid_arg "Vm.write_reg: length";
  t.regs.(r) <- Array.copy v

let exec_one t instr =
  let reg r =
    if r < 0 || r >= Array.length t.regs then invalid_arg "Vm: bad register";
    t.regs.(r)
  in
  match (instr : Isa.instr) with
  | Isa.Vadd (d, a, b) ->
    let va = reg a and vb = reg b in
    t.regs.(d) <- Array.init t.k (fun i -> Gf.add va.(i) vb.(i))
  | Isa.Vsub (d, a, b) ->
    let va = reg a and vb = reg b in
    t.regs.(d) <- Array.init t.k (fun i -> Gf.sub va.(i) vb.(i))
  | Isa.Vmul (d, a, b) ->
    let va = reg a and vb = reg b in
    t.regs.(d) <- Array.init t.k (fun i -> Gf.mul va.(i) vb.(i))
  | Isa.Vntt { dst; src; inverse } ->
    let v = Array.copy (reg src) in
    let plan = Ntt.plan t.k in
    if inverse then Ntt.inverse plan v else Ntt.forward plan v;
    t.regs.(dst) <- v
  | Isa.Vntt_tiled { dst; src; tile; inverse } ->
    if tile < 2 || t.k mod tile <> 0 then invalid_arg "Vm: bad tile size";
    let v = Array.copy (reg src) in
    let plan = Ntt.plan tile in
    let chunk = Array.make tile Gf.zero in
    for c = 0 to (t.k / tile) - 1 do
      Array.blit v (c * tile) chunk 0 tile;
      if inverse then Ntt.inverse plan chunk else Ntt.forward plan chunk;
      Array.blit chunk 0 v (c * tile) tile
    done;
    t.regs.(dst) <- v
  | Isa.Vhash (d, a, b) ->
    (* Group g of both sources is node g: lanes [8g, 8g + 4) from [a],
       [8g + 4, 8g + 8) from [b]. Each digest lane is read back as a field
       element (reduced mod p). *)
    let va = reg a and vb = reg b in
    let src = Fv.create (2 * t.k) and dst = Fv.create t.k in
    for g = 0 to (t.k / 4) - 1 do
      for i = 0 to 3 do
        Fv.set src ((8 * g) + i) (Gf.to_int64 va.((4 * g) + i));
        Fv.set src ((8 * g) + 4 + i) (Gf.to_int64 vb.((4 * g) + i))
      done
    done;
    Keccak.hash_nodes_into ~src ~dst;
    t.regs.(d) <- Array.init t.k (fun i -> Gf.of_int64 (Fv.get dst i))
  | Isa.Vshuffle (d, s, perm) ->
    if Array.length perm <> t.k then invalid_arg "Vm: permutation length";
    let v = reg s in
    t.regs.(d) <- Array.init t.k (fun i -> v.(perm.(i)))
  | Isa.Vrotate (d, s, n) ->
    let v = reg s in
    t.regs.(d) <- Array.init t.k (fun i -> v.((i + n) mod t.k))
  | Isa.Vinterleave (d, s, g) ->
    let perm = Isa.interleave_perm ~len:t.k ~group:g in
    let v = reg s in
    t.regs.(d) <- Array.init t.k (fun i -> v.(perm.(i)))
  | Isa.Vsplat (d, x) -> t.regs.(d) <- Array.make t.k x
  | Isa.Vload (d, slot) ->
    if slot < 0 || slot >= Array.length t.mem then invalid_arg "Vm: bad memory slot";
    t.regs.(d) <- Array.copy t.mem.(slot)
  | Isa.Vstore (slot, s) ->
    if slot < 0 || slot >= Array.length t.mem then invalid_arg "Vm: bad memory slot";
    t.mem.(slot) <- Array.copy (reg s)
  | Isa.Delay _ -> ()

let exec t program =
  List.iteri
    (fun i instr ->
      try exec_one t instr
      with Invalid_argument msg ->
        invalid_arg
          (Printf.sprintf "Vm.exec: instruction %d (%s): %s" i (Isa.instr_name instr)
             msg))
    program
