module Gf = Zk_field.Gf
module R1cs = Zk_r1cs.R1cs
module Sparse = Zk_r1cs.Sparse
module Fv = Nocap_vec.Fv

(* Static soundness analysis of R1CS instances (DESIGN.md Sec. 10).

   The central question is whether the io (public inputs) pins down the
   witness. We answer it in two stages over the honest assignment:

   1. Unit propagation: seed the known set with the io half, then repeatedly
      find a constraint row whose residual is linear in exactly one unknown
      with a nonzero net coefficient, and pin that unknown. This walks the
      "wire order" of builder-produced circuits almost linearly.

   2. Jacobian rank probe: whatever propagation leaves (typically bit wires
      whose booleanity rows are bilinear in themselves) is handed to a sparse
      Gaussian elimination over the Jacobian of the constraint map at the
      honest point. Free (non-pivot) columns are genuine first-order degrees
      of freedom: we construct the tangent nullspace vector and verify it
      against every leftover row before reporting. The probe is local — see
      the .mli and DESIGN.md for the soundness caveats. *)

type row_entry = (int * Gf.t) list
(* (column, coefficient) pairs of one matrix row, sorted by ascending column. *)

type verdict = {
  diags : Diag.t list;
  num_rows : int;
  num_vars : int;  (** live witness + io columns *)
  propagated : int;  (** witness vars pinned by unit propagation *)
  probe_unknowns : int;  (** vars handed to the rank probe *)
  probe_free : int;  (** residual degrees of freedom the probe confirmed *)
  probe_ops : int;  (** field operations spent in the elimination *)
}

let default_probe_budget = 50_000_000
let default_max_reports = 8

(* --- row extraction ------------------------------------------------------ *)

let rows_of_matrix (m : Sparse.t) ~num_rows : row_entry array =
  let rows = Array.make num_rows [] in
  Seq.iter
    (fun (r, c, v) -> if r < num_rows then rows.(r) <- (c, v) :: rows.(r))
    (Sparse.entries m);
  (* CSR entries arrive row-major; within a row we sort by column so that
     canonical forms and merges are deterministic. *)
  Array.map (fun l -> List.sort (fun (c1, _) (c2, _) -> compare c1 c2) (List.rev l)) rows

(* --- report capping ------------------------------------------------------ *)

(* Collect diagnostics per rule, emitting at most [max_reports] concrete
   findings and one aggregate line for the rest: a pathological circuit
   should produce a readable report, not num_vars lines of output. *)
type sink = {
  mutable out : Diag.t list;  (* reverse order *)
  counts : (string, int) Hashtbl.t;
  max_reports : int;
}

let sink max_reports = { out = []; counts = Hashtbl.create 16; max_reports }

let emit sink d =
  let n = try Hashtbl.find sink.counts d.Diag.rule with Not_found -> 0 in
  Hashtbl.replace sink.counts d.Diag.rule (n + 1);
  if n < sink.max_reports then sink.out <- d :: sink.out

let drain sink =
  let aggregates =
    Hashtbl.fold
      (fun rule n acc ->
        if n > sink.max_reports then
          let severity =
            match List.find_opt (fun d -> d.Diag.rule = rule) sink.out with
            | Some d -> d.Diag.severity
            | None -> Diag.Warning
          in
          {
            Diag.severity;
            index = Diag.program_level;
            rule;
            message =
              Printf.sprintf "... and %d more %s findings (capped at %d)"
                (n - sink.max_reports) rule sink.max_reports;
          }
          :: acc
        else acc)
      sink.counts []
  in
  List.rev_append sink.out aggregates

(* --- the analysis -------------------------------------------------------- *)

let analyze ?(max_reports = default_max_reports)
    ?(probe_budget = default_probe_budget) (inst : R1cs.instance)
    (z : R1cs.assignment) =
  let n = R1cs.size inst in
  let half = n / 2 in
  let nc = inst.num_constraints in
  R1cs.check_assignment inst z;
  let a_rows = rows_of_matrix inst.a ~num_rows:nc in
  let b_rows = rows_of_matrix inst.b ~num_rows:nc in
  let c_rows = rows_of_matrix inst.c ~num_rows:nc in
  let spmv m =
    let dst = Fv.create n in
    Sparse.spmv_into m ~x:z ~r_lo:0 dst;
    dst
  in
  let az = spmv inst.a and bz = spmv inst.b and cz = spmv inst.c in
  let s = sink max_reports in

  (* Occurrence counts over the real constraint rows. *)
  let occurrences = Array.make n 0 in
  Array.iter
    (List.iter (fun (c, _) -> occurrences.(c) <- occurrences.(c) + 1))
    a_rows;
  Array.iter
    (List.iter (fun (c, _) -> occurrences.(c) <- occurrences.(c) + 1))
    b_rows;
  Array.iter
    (List.iter (fun (c, _) -> occurrences.(c) <- occurrences.(c) + 1))
    c_rows;

  (* unconstrained-variable: a live witness column no constraint mentions.
     The prover can set it to anything without the verifier noticing. *)
  for j = 0 to inst.num_witness - 1 do
    if occurrences.(j) = 0 then
      emit s
        (Diag.error ~index:j ~rule:"unconstrained-variable"
           (Printf.sprintf "witness column %d appears in no constraint" j))
  done;
  (* unused-public-input: a declared public input no constraint reads. Not a
     soundness hole (the io is fixed by the statement) but almost always a
     circuit bug: the statement does not say what the author thinks. *)
  for k = 1 to inst.num_io - 1 do
    if occurrences.(half + k) = 0 then
      emit s
        (Diag.warning ~index:(half + k) ~rule:"unused-public-input"
           (Printf.sprintf "public input %d (column %d) appears in no constraint"
              k (half + k)))
  done;

  (* Per-row lints. *)
  for r = 0 to nc - 1 do
    if not (Gf.equal (Gf.mul (Fv.get az r) (Fv.get bz r)) (Fv.get cz r)) then
      emit s
        (Diag.error ~index:r ~rule:"unsatisfied-constraint"
           (Printf.sprintf "(Az)(Bz) = %s but Cz = %s at row %d"
              (Gf.to_string (Gf.mul (Fv.get az r) (Fv.get bz r)))
              (Gf.to_string (Fv.get cz r))
              r));
    if c_rows.(r) = [] && (a_rows.(r) = [] || b_rows.(r) = []) then
      emit s
        (Diag.error ~index:r ~rule:"trivial-constraint"
           (Printf.sprintf
              "row %d is 0 = 0 for every assignment (C empty, product side \
               identically zero)"
              r))
  done;

  (* duplicate/redundant constraints, via canonical row forms. Scaling A by
     alpha and B by beta scales the product side by alpha*beta, so the family
     (alpha*A_r, beta*B_r, alpha*beta*C_r) all express the same constraint:
     normalize each side by its leading coefficient and C by the product. A
     row whose product side is identically zero (A or B empty) only says
     "0 = C z", so only C participates in its canonical form. *)
  let canonical r =
    let a = a_rows.(r) and b = b_rows.(r) and c = c_rows.(r) in
    if c = [] && (a = [] || b = []) then None (* trivial rows handled above *)
    else if a = [] || b = [] then
      let c0 = match c with (_, v) :: _ -> v | [] -> Gf.one in
      let inv = Gf.inv c0 in
      Some ("z", [], List.map (fun (j, v) -> (j, Gf.mul inv v)) c)
    else
      let lead l = match l with (_, v) :: _ -> v | [] -> Gf.one in
      let scale k l = List.map (fun (j, v) -> (j, Gf.mul k v)) l in
      let alpha = lead a and beta = lead b in
      let a' = scale (Gf.inv alpha) a and b' = scale (Gf.inv beta) b in
      let c' = scale (Gf.inv (Gf.mul alpha beta)) c in
      (* (Az)(Bz) is symmetric in A and B: order the pair canonically. *)
      let lo, hi = if compare a' b' <= 0 then (a', b') else (b', a') in
      Some ("p", lo, (-1, Gf.zero) :: hi @ ((-2, Gf.zero) :: c'))
  in
  let seen : (string * row_entry * row_entry, int) Hashtbl.t =
    Hashtbl.create (2 * nc)
  in
  for r = 0 to nc - 1 do
    match canonical r with
    | None -> ()
    | Some key -> (
      match Hashtbl.find_opt seen key with
      | None -> Hashtbl.add seen key r
      | Some first ->
        let exact =
          a_rows.(r) = a_rows.(first)
          && b_rows.(r) = b_rows.(first)
          && c_rows.(r) = c_rows.(first)
        in
        let rule =
          if exact then "duplicate-constraint" else "redundant-constraint"
        in
        emit s
          (Diag.warning ~index:r ~rule
             (Printf.sprintf "row %d %s row %d" r
                (if exact then "is an exact copy of"
                 else "is a scalar multiple of")
                first)))
  done;

  (* --- stage 1: unit propagation over the honest assignment ------------- *)
  let known = Array.make n false in
  let is_const = Array.make n false in
  (* Seed: the io half is fixed by the statement; io.(0) is the literal 1.
     Padding columns (dead witness slots, dead io slots) hold zero and are
     referenced by no constraint — mark them known constants so stray
     references cannot wedge the propagation. *)
  for j = half to n - 1 do
    known.(j) <- true
  done;
  is_const.(half) <- true;
  for j = inst.num_witness to half - 1 do
    known.(j) <- true;
    is_const.(j) <- true
  done;
  for j = half + inst.num_io to n - 1 do
    is_const.(j) <- true
  done;

  let col_rows = Array.make n [] in
  let note_col r (c, _) =
    match col_rows.(c) with
    | r' :: _ when r' = r -> ()
    | l -> col_rows.(c) <- r :: l
  in
  for r = 0 to nc - 1 do
    List.iter (note_col r) a_rows.(r);
    List.iter (note_col r) b_rows.(r);
    List.iter (note_col r) c_rows.(r)
  done;

  let propagated = ref 0 in
  let queue = Queue.create () in
  for r = 0 to nc - 1 do
    Queue.add r queue
  done;
  let queued = Array.make nc true in
  let requeue r =
    if not queued.(r) then begin
      queued.(r) <- true;
      Queue.add r queue
    end
  in
  (* Try to pin exactly one unknown from row [r]. The linear view: when one
     product side is fully known with value alpha, the row reads
     sum_j (alpha*other_j - c_j) z_j = 0 whose net coefficient on an unknown
     u must be nonzero and unique among unknowns for u to be determined. *)
  let side_known l = List.for_all (fun (j, _) -> known.(j)) l in
  let pin u value_const =
    known.(u) <- true;
    is_const.(u) <- value_const;
    incr propagated;
    List.iter requeue col_rows.(u)
  in
  let try_row r =
    let a = a_rows.(r) and b = b_rows.(r) and c = c_rows.(r) in
    let a_known = side_known a and b_known = side_known b in
    (* Net coefficients of the linearized row: alpha known-product-side value
       times the other side's coefficients, minus C's. *)
    let linear =
      if a_known && b_known then
        (* Only C can hold unknowns: az*bz = sum c_j z_j. *)
        Some (List.map (fun (j, v) -> (j, Gf.neg v)) c)
      else if a_known then
        Some
          (List.map (fun (j, v) -> (j, Gf.mul (Fv.get az r) v)) b
          @ List.map (fun (j, v) -> (j, Gf.neg v)) c)
      else if b_known then
        Some
          (List.map (fun (j, v) -> (j, Gf.mul (Fv.get bz r) v)) a
          @ List.map (fun (j, v) -> (j, Gf.neg v)) c)
      else None
    in
    match linear with
    | None -> false
    | Some terms ->
      (* Sum duplicate columns (a variable may sit on both B and C). *)
      let net = Hashtbl.create 8 in
      List.iter
        (fun (j, v) ->
          if not known.(j) then
            let cur = try Hashtbl.find net j with Not_found -> Gf.zero in
            Hashtbl.replace net j (Gf.add cur v))
        terms;
      let unknowns =
        Hashtbl.fold
          (fun j v acc -> if Gf.equal v Gf.zero then acc else (j, v) :: acc)
          net []
      in
      (match unknowns with
      | [ (u, _) ] ->
        let const =
          List.for_all (fun (j, _) -> j = u || is_const.(j)) a
          && List.for_all (fun (j, _) -> j = u || is_const.(j)) b
          && List.for_all (fun (j, _) -> j = u || is_const.(j)) c
        in
        pin u const;
        true
      | _ -> false)
  in
  while not (Queue.is_empty queue) do
    let r = Queue.pop queue in
    queued.(r) <- false;
    ignore (try_row r)
  done;

  (* constant-variable: pinned from rows whose every other wire was itself a
     constant — the value cannot depend on the statement, so the wire could
     be folded away at circuit-construction time. *)
  for j = 0 to inst.num_witness - 1 do
    if known.(j) && is_const.(j) then
      emit s
        (Diag.warning ~index:j ~rule:"constant-variable"
           (Printf.sprintf
              "witness column %d is the constant %s in every satisfying \
               assignment"
              j
              (Gf.to_string (Fv.get z j))))
  done;

  (* --- stage 2: Jacobian rank probe on the leftovers --------------------- *)
  (* Unknown live witness columns that do occur somewhere (pure
     no-occurrence columns were already reported as unconstrained). *)
  let unknowns = ref [] in
  for j = inst.num_witness - 1 downto 0 do
    if (not known.(j)) && occurrences.(j) > 0 then unknowns := j :: !unknowns
  done;
  let probe_unknowns = List.length !unknowns in
  let probe_free = ref 0 in
  let ops = ref 0 in
  if probe_unknowns > 0 then begin
    let is_unknown = Array.make n false in
    List.iter (fun j -> is_unknown.(j) <- true) !unknowns;
    (* Jacobian of r-th constraint f_r(z) = (A_r z)(B_r z) - C_r z at the
       honest point, restricted to unknown columns:
       df_r/dz_u = bz(r) * A_r[u] + az(r) * B_r[u] - C_r[u]. *)
    let probe_rows = ref [] in
    let jac_row r =
      let net = Hashtbl.create 8 in
      let addc j v =
        if is_unknown.(j) then
          let cur = try Hashtbl.find net j with Not_found -> Gf.zero in
          Hashtbl.replace net j (Gf.add cur v)
      in
      List.iter (fun (j, v) -> addc j (Gf.mul (Fv.get bz r) v)) a_rows.(r);
      List.iter (fun (j, v) -> addc j (Gf.mul (Fv.get az r) v)) b_rows.(r);
      List.iter (fun (j, v) -> addc j (Gf.neg v)) c_rows.(r);
      let l =
        Hashtbl.fold
          (fun j v acc -> if Gf.equal v Gf.zero then acc else (j, v) :: acc)
          net []
      in
      (* Descending column order: circuits allocate outputs after inputs, so
         leading-by-largest-column keeps the elimination near-triangular
         (booleanity rows are singleton pivots; no fill). *)
      List.sort (fun (c1, _) (c2, _) -> compare c2 c1) l
    in
    let touches_unknown r =
      List.exists (fun (j, _) -> is_unknown.(j)) a_rows.(r)
      || List.exists (fun (j, _) -> is_unknown.(j)) b_rows.(r)
      || List.exists (fun (j, _) -> is_unknown.(j)) c_rows.(r)
    in
    for r = 0 to nc - 1 do
      if touches_unknown r then
        match jac_row r with [] -> () | jr -> probe_rows := jr :: !probe_rows
    done;
    let probe_rows = List.rev !probe_rows in
    (* Incremental echelon form; pivots normalized to leading coefficient 1,
       keyed by leading (largest) column. *)
    let pivots : (int, row_entry) Hashtbl.t = Hashtbl.create 1024 in
    (* v - k*p over descending-sorted rows, dropping cancellations. *)
    let rec sub_scaled v k p =
      match (v, p) with
      | v, [] -> v
      | [], (j, pv) :: p' ->
        incr ops;
        (j, Gf.neg (Gf.mul k pv)) :: sub_scaled [] k p'
      | (jv, vv) :: v', (jp, pv) :: p' ->
        if jv > jp then (jv, vv) :: sub_scaled v' k p
        else if jp > jv then begin
          incr ops;
          (jp, Gf.neg (Gf.mul k pv)) :: sub_scaled v k p'
        end
        else begin
          incr ops;
          let nv = Gf.sub vv (Gf.mul k pv) in
          if Gf.equal nv Gf.zero then sub_scaled v' k p'
          else (jv, nv) :: sub_scaled v' k p'
        end
    in
    let overflow = ref false in
    let rec reduce v =
      if !ops > probe_budget then overflow := true
      else
        match v with
        | [] -> ()
        | (j, k) :: _ -> (
          match Hashtbl.find_opt pivots j with
          | Some p ->
            (* p's leading entry is (j, 1): the head cancels exactly. *)
            reduce (sub_scaled v k p)
          | None ->
            let inv = Gf.inv k in
            ops := !ops + List.length v;
            Hashtbl.replace pivots j
              (List.map (fun (c, x) -> (c, Gf.mul inv x)) v))
    in
    List.iter (fun v -> if not !overflow then reduce v) probe_rows;
    if !overflow then
      emit s
        (Diag.warning ~index:Diag.program_level ~rule:"probe-overflow"
           (Printf.sprintf
              "rank probe exceeded its %d-op budget with %d unknowns; \
               under-constrained detection incomplete"
              probe_budget probe_unknowns))
    else begin
      (* Free columns = unknowns that never became pivots. Each is a genuine
         first-order degree of freedom; exhibit the tangent direction and
         check it against every probe row before reporting. *)
      let free = List.filter (fun j -> not (Hashtbl.mem pivots j)) !unknowns in
      probe_free := List.length free;
      let verify_direction f =
        let delta = Hashtbl.create 64 in
        Hashtbl.replace delta f Gf.one;
        let dval j = try Hashtbl.find delta j with Not_found -> Gf.zero in
        (* Pivot rows lead with their largest column, so filling pivots in
           increasing column order is plain back-substitution. *)
        let pivot_cols =
          List.sort compare (Hashtbl.fold (fun j _ acc -> j :: acc) pivots [])
        in
        List.iter
          (fun j ->
            let row = Hashtbl.find pivots j in
            let rest =
              List.fold_left
                (fun acc (c, v) ->
                  if c = j then acc else Gf.add acc (Gf.mul v (dval c)))
                Gf.zero row
            in
            let v = Gf.neg rest in
            if not (Gf.equal v Gf.zero) then Hashtbl.replace delta j v)
          pivot_cols;
        List.for_all
          (fun row ->
            Gf.equal Gf.zero
              (List.fold_left
                 (fun acc (c, v) -> Gf.add acc (Gf.mul v (dval c)))
                 Gf.zero row))
          probe_rows
      in
      List.iter
        (fun f ->
          if verify_direction f then
            emit s
              (Diag.error ~index:f ~rule:"under-constrained-variable"
                 (Printf.sprintf
                    "witness column %d admits a verified tangent degree of \
                     freedom: perturbing it extends to a nearby satisfying \
                     assignment with the same public io"
                    f))
          else
            emit s
              (Diag.warning ~index:f ~rule:"probe-overflow"
                 (Printf.sprintf
                    "free column %d failed nullspace verification; probe \
                     result inconclusive"
                    f)))
        free
    end
  end;

  {
    diags = drain s;
    num_rows = nc;
    num_vars = inst.num_witness + inst.num_io;
    propagated = !propagated;
    probe_unknowns;
    probe_free = !probe_free;
    probe_ops = !ops;
  }

let lint ?max_reports ?probe_budget inst asgn =
  (analyze ?max_reports ?probe_budget inst asgn).diags

let is_clean v = Diag.is_clean v.diags

let summary v =
  Printf.sprintf
    "%d rows, %d vars: %d propagated, %d probed (%d free, %d ops), %d \
     errors, %d warnings"
    v.num_rows v.num_vars v.propagated v.probe_unknowns v.probe_free
    v.probe_ops
    (List.length (Diag.errors v.diags))
    (List.length (Diag.warnings v.diags))
