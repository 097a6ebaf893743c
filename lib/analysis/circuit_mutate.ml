module Gf = Zk_field.Gf
module R1cs = Zk_r1cs.R1cs
module Sparse = Zk_r1cs.Sparse
module Rng = Zk_util.Rng

(* Constraint-weakening mutation operators. Every operator preserves
   satisfiability under the honest assignment — the mutant accepts at least
   everything the original accepted — and is constructed so that a specific
   lint rule must fire on it. That makes "the linter catches every mutant"
   an invariant testable by exhaustive replay rather than a statistical
   claim: a silent accept is a linter bug, full stop. *)

type op =
  | Drop_row of int  (** empty constraint row [r] entirely *)
  | Detach_var of int
      (** fold every occurrence of witness column [v] into the constant-one
          column at its honest value, leaving [v] unreferenced *)
  | Dup_row of int * int  (** overwrite row [dst] with an exact copy of [src] *)
  | Scale_row of int * int * int
      (** overwrite row [dst] with [(alpha*A_src, B_src, alpha*C_src)] *)
  | Merge_rows of int * int
      (** combine two linear rows (B a multiple of the one column) into a
          single [0 = C'z] row at the first index, emptying the second *)

let op_name = function
  | Drop_row _ -> "drop-row"
  | Detach_var _ -> "detach-var"
  | Dup_row _ -> "dup-row"
  | Scale_row _ -> "scale-row"
  | Merge_rows _ -> "merge-rows"

(* The rule each operator is guaranteed to trip on a clean circuit. *)
let expected_rule = function
  | Drop_row _ -> "trivial-constraint"
  | Detach_var _ -> "unconstrained-variable"
  | Dup_row _ -> "duplicate-constraint"
  | Scale_row _ -> "redundant-constraint"
  | Merge_rows _ -> "trivial-constraint"

let op_to_string = function
  | Drop_row r -> Printf.sprintf "drop:%d" r
  | Detach_var v -> Printf.sprintf "detach:%d" v
  | Dup_row (src, dst) -> Printf.sprintf "dup:%d>%d" src dst
  | Scale_row (src, dst, alpha) -> Printf.sprintf "scale:%d>%d*%d" src dst alpha
  | Merge_rows (i, j) -> Printf.sprintf "merge:%d+%d" i j

let op_of_string s =
  let fail () = invalid_arg ("Circuit_mutate.op_of_string: " ^ s) in
  match String.index_opt s ':' with
  | None -> fail ()
  | Some k -> (
    let kind = String.sub s 0 k in
    let rest = String.sub s (k + 1) (String.length s - k - 1) in
    let two sep =
      match String.split_on_char sep rest with
      | [ a; b ] -> (int_of_string a, int_of_string b)
      | _ -> fail ()
    in
    match kind with
    | "drop" -> Drop_row (int_of_string rest)
    | "detach" -> Detach_var (int_of_string rest)
    | "dup" ->
      let a, b = two '>' in
      Dup_row (a, b)
    | "scale" -> (
      match String.split_on_char '>' rest with
      | [ a; rest' ] -> (
        match String.split_on_char '*' rest' with
        | [ b; al ] -> Scale_row (int_of_string a, int_of_string b, int_of_string al)
        | _ -> fail ())
      | _ -> fail ())
    | "merge" ->
      let a, b = two '+' in
      Merge_rows (a, b)
    | _ -> fail ())

(* --- row predicates ------------------------------------------------------ *)

let row_entries m r =
  Seq.fold_left
    (fun acc (r', c, v) -> if r' = r then (c, v) :: acc else acc)
    [] (Sparse.entries m)
  |> List.rev

let row_empty m r = row_entries m r = []

(* A "trivial" row in the Circuit_lint sense never constrains anything;
   copying or scaling it produces no duplicate finding, so the duplication
   operators refuse such sources. *)
let row_nontrivial inst r =
  not
    (row_empty inst.R1cs.c r
    && (row_empty inst.R1cs.a r || row_empty inst.R1cs.b r))

(* A linear row: B is a (nonzero) multiple of the constant-one column, so
   the constraint reads [beta * (A_r z) = C_r z]. *)
let linear_row inst ~one_col r =
  match row_entries inst.R1cs.b r with
  | [] -> false
  | l -> List.for_all (fun (c, _) -> c = one_col) l

(* --- application --------------------------------------------------------- *)

let rebuild (inst : R1cs.instance) ~a ~b ~c =
  let n = R1cs.size inst in
  let pack entries =
    let e = Array.of_list entries in
    let ints f = Bigarray.Array1.of_array Bigarray.int Bigarray.c_layout (Array.map f e) in
    Sparse.of_triplets ~nrows:n ~ncols:n
      (ints (fun (r, _, _) -> r))
      (ints (fun (_, c, _) -> c))
      (Nocap_vec.Fv.of_array (Array.map (fun (_, _, v) -> v) e))
  in
  R1cs.make ~a:(pack a) ~b:(pack b) ~c:(pack c)
    ~log_size:inst.log_size ~num_constraints:inst.num_constraints
    ~num_witness:inst.num_witness ~num_io:inst.num_io

let entries m = List.of_seq (Sparse.entries m)

let apply (inst : R1cs.instance) (asgn : R1cs.assignment) op =
  let nc = inst.num_constraints in
  let one_col = R1cs.size inst / 2 in
  let drop_row r l = List.filter (fun (r', _, _) -> r' <> r) l in
  let copy_row ~src ~dst ?(scale = Gf.one) l =
    List.filter_map
      (fun (r, c, v) -> if r = src then Some (dst, c, Gf.mul scale v) else None)
      l
  in
  match op with
  | Drop_row r ->
    if r < 0 || r >= nc then None
    else
      Some
        (rebuild inst
           ~a:(drop_row r (entries inst.a))
           ~b:(drop_row r (entries inst.b))
           ~c:(drop_row r (entries inst.c)))
  | Detach_var v ->
    if v < 0 || v >= inst.num_witness then None
    else
      let zv = asgn.w.(v) in
      let fold l =
        List.map
          (fun (r, c, k) ->
            if c = v then (r, one_col, Gf.mul k zv) else (r, c, k))
          l
      in
      let occurs =
        List.exists (fun (_, c, _) -> c = v) (entries inst.a)
        || List.exists (fun (_, c, _) -> c = v) (entries inst.b)
        || List.exists (fun (_, c, _) -> c = v) (entries inst.c)
      in
      if not occurs then None
      else
        Some
          (rebuild inst
             ~a:(fold (entries inst.a))
             ~b:(fold (entries inst.b))
             ~c:(fold (entries inst.c)))
  | Dup_row (src, dst) ->
    if src < 0 || src >= nc || dst < 0 || dst >= nc || src = dst then None
    else if not (row_nontrivial inst src) then None
    else
      let tr l = drop_row dst l @ copy_row ~src ~dst l in
      Some
        (rebuild inst ~a:(tr (entries inst.a)) ~b:(tr (entries inst.b))
           ~c:(tr (entries inst.c)))
  | Scale_row (src, dst, alpha) ->
    if src < 0 || src >= nc || dst < 0 || dst >= nc || src = dst then None
    else if alpha <= 1 then None
    else if not (row_nontrivial inst src) then None
    else
      let k = Gf.of_int alpha in
      let scaled l = drop_row dst l @ copy_row ~src ~dst ~scale:k l in
      let copied l = drop_row dst l @ copy_row ~src ~dst l in
      Some
        (rebuild inst
           ~a:(scaled (entries inst.a))
           ~b:(copied (entries inst.b))
           ~c:(scaled (entries inst.c)))
  | Merge_rows (i, j) ->
    if i < 0 || i >= nc || j < 0 || j >= nc || i = j then None
    else if not (linear_row inst ~one_col i && linear_row inst ~one_col j) then
      None
    else
      (* Row r with B = beta * one reads [beta * (A_r z) = C_r z], i.e. the
         linear form L_r = beta*A_r - C_r vanishes on z. Replace row i by
         [0 = (L_i + L_j) z] and empty row j: both constraints hold on every
         original solution, row j is now trivially 0 = 0. *)
      let beta r =
        List.fold_left
          (fun acc (c, v) -> if c = one_col then Gf.add acc v else acc)
          Gf.zero (row_entries inst.b r)
      in
      let linear_form r =
        let tbl = Hashtbl.create 8 in
        let add c v =
          let cur = try Hashtbl.find tbl c with Not_found -> Gf.zero in
          Hashtbl.replace tbl c (Gf.add cur v)
        in
        let br = beta r in
        List.iter (fun (c, v) -> add c (Gf.mul br v)) (row_entries inst.a r);
        List.iter (fun (c, v) -> add c (Gf.neg v)) (row_entries inst.c r);
        tbl
      in
      let combined = linear_form i in
      Hashtbl.iter
        (fun c v ->
          let cur = try Hashtbl.find combined c with Not_found -> Gf.zero in
          Hashtbl.replace combined c (Gf.add cur v))
        (linear_form j);
      let c_row =
        Hashtbl.fold (fun c v acc -> (i, c, v) :: acc) combined []
      in
      let strip l = List.filter (fun (r, _, _) -> r <> i && r <> j) l in
      Some
        (rebuild inst ~a:(strip (entries inst.a)) ~b:(strip (entries inst.b))
           ~c:(strip (entries inst.c) @ c_row))

(* --- random generation --------------------------------------------------- *)

let random rng (inst : R1cs.instance) (asgn : R1cs.assignment) =
  let nc = inst.num_constraints in
  if nc = 0 then None
  else
    let one_col = R1cs.size inst / 2 in
    let pick_row () = Rng.int rng nc in
    let pick_other r =
      if nc < 2 then None
      else
        let j = Rng.int rng (nc - 1) in
        Some (if j >= r then j + 1 else j)
    in
    (* One-pass scans, computed at most once per call: witness columns that
       actually occur (detaching a dead column would be a no-op mutant — a
       silent accept by construction, not a linter win) and the rows whose B
       side is a multiple of the one column (Merge_rows candidates). *)
    let occurring_witness =
      lazy
        (let occ = Array.make (max inst.num_witness 1) false in
         let note m =
           Seq.iter
             (fun (_, c, _) -> if c < inst.num_witness then occ.(c) <- true)
             (Sparse.entries m)
         in
         note inst.a;
         note inst.b;
         note inst.c;
         let l = ref [] in
         for v = inst.num_witness - 1 downto 0 do
           if occ.(v) then l := v :: !l
         done;
         Array.of_list !l)
    in
    let linear_rows =
      lazy
        (let has_b = Array.make nc false in
         let nonlin = Array.make nc false in
         Seq.iter
           (fun (r, c, _) ->
             if r < nc then begin
               has_b.(r) <- true;
               if c <> one_col then nonlin.(r) <- true
             end)
           (Sparse.entries inst.b);
         let l = ref [] in
         for r = nc - 1 downto 0 do
           if has_b.(r) && not nonlin.(r) then l := r :: !l
         done;
         Array.of_list !l)
    in
    let gen () =
      match Rng.int rng 5 with
      | 0 -> Some (Drop_row (pick_row ()))
      | 1 -> (
        match Lazy.force occurring_witness with
        | [||] -> None
        | vs -> Some (Detach_var vs.(Rng.int rng (Array.length vs))))
      | 2 ->
        let src = pick_row () in
        Option.map (fun dst -> Dup_row (src, dst)) (pick_other src)
      | 3 ->
        let src = pick_row () in
        Option.map
          (fun dst -> Scale_row (src, dst, 2 + Rng.int rng 8))
          (pick_other src)
      | _ -> (
        match Lazy.force linear_rows with
        | rows when Array.length rows >= 2 ->
          let i = rows.(Rng.int rng (Array.length rows)) in
          let j = ref i in
          while !j = i do
            j := rows.(Rng.int rng (Array.length rows))
          done;
          Some (Merge_rows (i, !j))
        | _ -> None)
    in
    (* A few retries: some operators are inapplicable on some circuits. *)
    let rec attempt k =
      if k = 0 then None
      else
        match gen () with
        | None -> attempt (k - 1)
        | Some op -> (
          match apply inst asgn op with
          | None -> attempt (k - 1)
          | Some mutant -> Some (op, mutant))
    in
    attempt 16

let sweep ~seed ~count (inst : R1cs.instance) (asgn : R1cs.assignment) =
  let rng = Rng.create seed in
  let out = ref [] in
  for _ = 1 to count do
    match random rng inst asgn with
    | Some m -> out := m :: !out
    | None -> ()
  done;
  List.rev !out
