module Gf = Zk_field.Gf
module Mle = Zk_poly.Mle
module Merkle = Zk_merkle.Merkle
module Keccak = Zk_hash.Keccak
module Transcript = Zk_hash.Transcript
module Pool = Nocap_parallel.Pool
module Fv = Nocap_vec.Fv
module Spill = Nocap_vec.Spill

type params = {
  rows : int;
  code : Zk_ecc.Linear_code.t;
  proximity_count : int;
  zk : bool;
}

let default_params =
  { rows = 128; code = (module Zk_ecc.Reed_solomon); proximity_count = 4; zk = true }

type param_error =
  | Rows_not_positive of int
  | Rows_not_power_of_two of int
  | Proximity_count_not_positive of int
  | Code_rate_insane of { code : string; blowup : int }

let param_error_to_string = function
  | Rows_not_positive r -> Printf.sprintf "rows must be positive, got %d" r
  | Rows_not_power_of_two r -> Printf.sprintf "rows must be a power of two, got %d" r
  | Proximity_count_not_positive c ->
    Printf.sprintf "proximity_count must be >= 1, got %d" c
  | Code_rate_insane { code; blowup } ->
    Printf.sprintf "code %s has insane rate: blowup %d outside [2, 64]" code blowup

let validate_params params =
  let module Code = (val params.code : Zk_ecc.Linear_code.S) in
  if params.rows <= 0 then Error (Rows_not_positive params.rows)
  else if params.rows land (params.rows - 1) <> 0 then
    Error (Rows_not_power_of_two params.rows)
  else if params.proximity_count < 1 then
    Error (Proximity_count_not_positive params.proximity_count)
  else if Code.blowup < 2 || Code.blowup > 64 then
    Error (Code_rate_insane { code = Code.name; blowup = Code.blowup })
  else Ok ()

type commitment = {
  root : Merkle.digest;
  num_vars : int;
  mat_rows : int;
  mat_cols : int;
}

(* Prover-side state is kept unboxed: the un-encoded rows (data then
   masks) are one row-major flat [Spill.t], RAM-backed with no budget and
   file-backed under one. The encoded matrix — the blowup-times-larger
   object — is never kept: the commit encodes and hashes it one row block
   at a time, and openings re-encode every row block on demand, gathering
   just the queried codeword positions. *)
type committed = {
  c_params : params;
  c_commitment : commitment;
  masks : Fv.t; (* proximity_count x mat_cols mask rows (length 0 if not zk) *)
  enc_rows : int; (* data rows + mask rows *)
  all_rows : Spill.t; (* enc_rows x mat_cols, row-major *)
  row_block : int; (* rows per encode block *)
  tree : Merkle.tree;
}

type eval_proof = {
  u : Fv.t;
  proximity : Fv.t array;
  col_index : int array;
  col_height : int array;
  col_values : Fv.t;
  path_len : int array;
  paths : Fv.t;
}

let num_openings p = Array.length p.col_index

(* Start of each opening's run in a buffer of concatenated runs. *)
let offsets lens =
  let pos = Array.make (Array.length lens) 0 in
  for k = 1 to Array.length lens - 1 do
    pos.(k) <- pos.(k - 1) + lens.(k - 1)
  done;
  pos

let sum = Array.fold_left ( + ) 0

(* The per-opening arrays agree with each other and with the buffers. The
   decoder only ever builds such records; a hand-built one may not. *)
let well_formed p =
  let nq = num_openings p in
  Array.length p.col_height = nq
  && Array.length p.path_len = nq
  && Array.for_all (fun h -> h >= 0) p.col_height
  && Array.for_all (fun l -> l >= 0) p.path_len
  && sum p.col_height = Fv.length p.col_values
  && 4 * sum p.path_len = Fv.length p.paths

let log2_exact n =
  if n <= 0 || n land (n - 1) <> 0 then invalid_arg "Orion: size must be a power of two";
  let rec go k m = if m = 1 then k else go (k + 1) (m lsr 1) in
  go 0 n

(* Rows per block are whole multiples of two full sponge blocks, so every
   block boundary is a permutation boundary. *)
let pipeline_block = 2 * Keccak.rate_lanes

(* Commit over a flat-element producer: [read ~pos dst] must fill [dst]
   with elements [pos, pos + length dst) of the table (row-major
   [rows * cols], like the flat table itself). Nothing bigger than a row
   block (all rows when there is no budget), the per-column sponge bank
   (200 bytes/column) and the Merkle tree is ever resident; the un-encoded
   rows are kept for the opening phase. Mask rows are drawn from [rng] in
   a fixed order, rows stream into each column sponge in order
   (block-local absorb indices stay lane-aligned because blocks are
   multiples of [pipeline_block]), and the Merkle builder hashes the same
   leaf set for every block size — so the root and every subsequent proof
   byte are the same for every budget. *)
let commit_stream ?budget_bytes params rng ~num_vars ~read =
  (match validate_params params with
  | Ok () -> ()
  | Error e -> invalid_arg ("Orion.commit: " ^ param_error_to_string e));
  if num_vars < 0 || num_vars > 62 then invalid_arg "Orion.commit_stream: num_vars";
  let module Code = (val params.code : Zk_ecc.Linear_code.S) in
  let n = 1 lsl num_vars in
  let rows = min params.rows n in
  let cols = n / rows in
  let code_len = Code.blowup * cols in
  let mask_rows = if params.zk then params.proximity_count else 0 in
  let masks = Fv.create (mask_rows * cols) in
  (* Mask rows in order, each row left to right, one [Gf.random] per cell. *)
  for i = 0 to (mask_rows * cols) - 1 do
    Fv.unsafe_set masks i (Gf.random rng)
  done;
  let enc_rows = rows + mask_rows in
  (* Under a budget, the row block is sized so the un-encoded and encoded
     staging buffers together fit ~half of it, rounded to whole pipeline
     blocks (keeps block-local absorb indices congruent to absolute ones
     mod the sponge rate). With no budget it spans every row. *)
  let all_blocks = ((enc_rows + pipeline_block - 1) / pipeline_block) * pipeline_block in
  let row_block =
    match budget_bytes with
    | None -> all_blocks
    | Some b ->
      let by_budget = b / 2 / (8 * (cols + code_len)) in
      min (max 1 (by_budget / pipeline_block) * pipeline_block) all_blocks
  in
  let spill = Option.is_some budget_bytes in
  let all_rows = Spill.create ~tag:"orion-rows" ~spill (enc_rows * cols) in
  (* Cancellation or an injected I/O fault mid-commit must not strand the
     staging spill until a major GC: free it on any non-success exit (the
     finalizer stays as backstop only). *)
  let staged_ok = ref false in
  Fun.protect ~finally:(fun () -> if not !staged_ok then Spill.free all_rows)
  @@ fun () ->
  let src_buf = Fv.create (if spill then row_block * cols else 0) in
  (* Stage the data rows (straight into RAM-backed storage)... *)
  let pos = ref 0 in
  while !pos < rows * cols do
    Pool.Cancel.check ();
    let len = min (row_block * cols) ((rows * cols) - !pos) in
    let v = Spill.writable all_rows ~pos:!pos ~len ~buf:src_buf in
    read ~pos:!pos v;
    Spill.store all_rows ~pos:!pos v;
    pos := !pos + len
  done;
  (* ...then the mask rows after them. *)
  if mask_rows > 0 then Spill.write all_rows ~pos:(rows * cols) masks;
  let col_hash = Keccak.Col_hash.create code_len in
  let enc_buf = Fv.create (min row_block enc_rows * code_len) in
  let row_ns = Code.row_encode_ns ~cols in
  let nblocks = (enc_rows + row_block - 1) / row_block in
  for k = 0 to nblocks - 1 do
    Pool.Cancel.check ();
    let r_lo = k * row_block in
    let bh = min row_block (enc_rows - r_lo) in
    let src = Spill.view all_rows ~pos:(r_lo * cols) ~len:(bh * cols) ~buf:src_buf in
    Pool.run ~grain:(Pool.grain_of_ns row_ns) ~n:bh (fun lo hi ->
        for r = lo to hi - 1 do
          Code.encode_row_into
            ~src:(Fv.sub_view src ~pos:(r * cols) ~len:cols)
            ~dst:(Fv.sub_view enc_buf ~pos:(r * code_len) ~len:code_len)
        done);
    let col_ns =
      max 1 (((bh + Keccak.rate_lanes - 1) / Keccak.rate_lanes) * Keccak.block_ns ())
    in
    Pool.run ~grain:(Pool.grain_of_ns col_ns) ~n:code_len (fun c_lo c_hi ->
        (* Block-local row indices: r_lo is a multiple of the sponge rate,
           so [r mod rate_lanes] — the only thing absorb derives from the
           row index — matches the absolute row's. *)
        Keccak.Col_hash.absorb col_hash enc_buf ~row_stride:code_len ~r_lo:0 ~r_hi:bh
          ~c_lo ~c_hi)
  done;
  let leaves = Fv.create (4 * code_len) in
  Pool.run
    ~grain:(Pool.grain_of_ns (max 1 (Keccak.block_ns ())))
    ~n:code_len
    (fun c_lo c_hi ->
      Keccak.Col_hash.finalize col_hash ~total_rows:enc_rows ~c_lo ~c_hi leaves);
  let tree = Merkle.build leaves in
  let commitment =
    { root = Merkle.root tree; num_vars; mat_rows = rows; mat_cols = cols }
  in
  staged_ok := true;
  ( { c_params = params; c_commitment = commitment; masks; enc_rows; all_rows; row_block; tree },
    commitment )

(* The PCS entry point: the engine's stream budget, if any, sizes the row
   blocks and sends the rows to a spill file. *)
let commit ?engine params rng table =
  commit_stream
    ?budget_bytes:(Option.bind engine Zk_pcs.Engine.stream_budget_bytes)
    params rng
    ~num_vars:(log2_exact (Array.length table))
    ~read:(fun ~pos dst -> Fv.write_array table ~src_pos:pos dst ~dst_pos:0 ~len:(Fv.length dst))

let free_committed c = Spill.free c.all_rows

let absorb_commitment transcript (cm : commitment) =
  Transcript.absorb_digest transcript "orion/root" cm.root;
  Transcript.absorb_int transcript "orion/num_vars" cm.num_vars;
  Transcript.absorb_int transcript "orion/rows" cm.mat_rows

let split_point (cm : commitment) point =
  if Array.length point <> cm.num_vars then invalid_arg "Orion.split_point: dimension";
  let log_rows = log2_exact cm.mat_rows in
  (Array.sub point 0 log_rows, Array.sub point log_rows (cm.num_vars - log_rows))

let code_length params (cm : commitment) =
  let module Code = (val params.code : Zk_ecc.Linear_code.S) in
  Code.blowup * cm.mat_cols

(* Staging for one row block read back from a spill file; RAM-backed rows
   are read in place. *)
let row_staging committed =
  let spilled = Spill.is_spilled committed.all_rows in
  Fv.create (if spilled then committed.row_block * committed.c_commitment.mat_cols else 0)

(* coeffs^T over the DATA rows, one row block at a time, as an axpy per
   row over each column chunk. Column chunks are independent, and within a
   column the accumulation order over rows is the serial one, so the
   combination is byte-identical for every domain count and block size. *)
let row_combination committed coeffs =
  let cols = committed.c_commitment.mat_cols in
  let nrows = Array.length coeffs in
  let out = Fv.create cols in
  Fv.zero out;
  let buf = row_staging committed in
  let r = ref 0 in
  while !r < nrows do
    Pool.Cancel.check ();
    let r0 = !r in
    let bh = min committed.row_block (nrows - r0) in
    let mat = Spill.view committed.all_rows ~pos:(r0 * cols) ~len:(bh * cols) ~buf in
    (* One output column costs [bh] axpy steps, a few ns each. *)
    Pool.run ~grain:(Pool.grain_of_ns (max 1 (bh * 4))) ~n:cols (fun lo hi ->
        let dst = Fv.sub_view out ~pos:lo ~len:(hi - lo) in
        for i = 0 to bh - 1 do
          Fv.axpy_into ~dst coeffs.(r0 + i)
            (Fv.sub_view mat ~pos:((i * cols) + lo) ~len:(hi - lo))
        done);
    r := r0 + bh
  done;
  out

(* Column openings: one more re-encode pass over the stored rows,
   gathering only the queried codeword positions — the encoded matrix is
   never materialized — straight into the proof's flat column buffer
   (opening q at [q * enc_rows]). The encoder is deterministic, so the
   gathered values are the committed codeword's. Paths are copied as lanes
   from the tree's flat levels. *)
let gather_columns committed indices =
  let module Code = (val committed.c_params.code : Zk_ecc.Linear_code.S) in
  let cols = committed.c_commitment.mat_cols in
  let code_len = Code.blowup * cols in
  let row_block = committed.row_block in
  let nq = Array.length indices in
  let enc_rows = committed.enc_rows in
  let col_values = Fv.create (nq * enc_rows) in
  let src_buf = row_staging committed in
  let enc_buf = Fv.create (min row_block enc_rows * code_len) in
  let row_ns = Code.row_encode_ns ~cols in
  let r_lo = ref 0 in
  while !r_lo < enc_rows do
    Pool.Cancel.check ();
    let bh = min row_block (enc_rows - !r_lo) in
    let src =
      Spill.view committed.all_rows ~pos:(!r_lo * cols) ~len:(bh * cols) ~buf:src_buf
    in
    Pool.run ~grain:(Pool.grain_of_ns row_ns) ~n:bh (fun lo hi ->
        for r = lo to hi - 1 do
          Code.encode_row_into
            ~src:(Fv.sub_view src ~pos:(r * cols) ~len:cols)
            ~dst:(Fv.sub_view enc_buf ~pos:(r * code_len) ~len:code_len)
        done);
    for q = 0 to nq - 1 do
      let j = indices.(q) in
      let dst = (q * enc_rows) + !r_lo in
      for r = 0 to bh - 1 do
        Fv.set col_values (dst + r) (Fv.get enc_buf ((r * code_len) + j))
      done
    done;
    r_lo := !r_lo + bh
  done;
  let depth = Merkle.depth committed.tree in
  let paths = Fv.create (4 * nq * depth) in
  Array.iteri (fun q j -> Merkle.path_into committed.tree j paths ~pos:(4 * q * depth)) indices;
  (col_values, paths, depth)

(* [sum_j a_j * b_j] over two flat vectors of the same length. *)
let dot (a : Fv.t) (b : Fv.t) =
  let acc = ref Gf.zero in
  for j = 0 to Fv.length a - 1 do
    acc := Gf.add !acc (Gf.mul (Fv.get a j) (Fv.get b j))
  done;
  !acc

let prove_eval ?engine params committed transcript point =
  ignore (engine : Zk_pcs.Engine.t option);
  let cm = committed.c_commitment in
  let module Code = (val params.code : Zk_ecc.Linear_code.S) in
  let cols = cm.mat_cols in
  let q_row, q_col = split_point cm point in
  Transcript.absorb_gf transcript "orion/point" point;
  (* Proximity test: random combinations of the data rows, each masked by its
     own committed random row so that nothing about the witness leaks. *)
  let proximity =
    Array.init params.proximity_count (fun i ->
        let rho = Transcript.challenge_gf_vec transcript "orion/rho" cm.mat_rows in
        let v = row_combination committed rho in
        if params.zk then
          Fv.add_into ~dst:v v (Fv.sub_view committed.masks ~pos:(i * cols) ~len:cols);
        Transcript.absorb_fv transcript "orion/proximity" v;
        v)
  in
  (* Consistency: the eq(q_row) combination, whose inner product with
     eq(q_col) is the evaluation. *)
  let u = row_combination committed (Mle.eq_table q_row) in
  Transcript.absorb_fv transcript "orion/u" u;
  (* Column queries over the codeword domain. *)
  let bound = code_length params cm in
  let indices =
    Transcript.challenge_indices transcript "orion/columns" ~bound ~count:Code.query_count
  in
  let col_values, paths, depth = gather_columns committed indices in
  let nq = Array.length indices in
  ( dot u (Mle.eq_fv q_col),
    {
      u;
      proximity;
      col_index = indices;
      col_height = Array.make nq committed.enc_rows;
      col_values;
      path_len = Array.make nq depth;
      paths;
    } )

module E = Zk_pcs.Verify_error

(* Largest table size any configuration here addresses (paper scale tops out
   around 2^26); a decoded num_vars beyond this is hostile, and bounding it
   keeps every size derived from a wire commitment within range. *)
let max_num_vars = 32

(* A commitment that reached the verifier over the wire is
   attacker-controlled: before any size is derived from it, pin the matrix
   layout to the one [commit] would have produced under these params. After
   this check, [mat_rows] is a power of two with [log2 mat_rows <= num_vars],
   [mat_cols >= 1], and the codeword bound is positive — the facts the rest
   of [verify_eval] relies on to stay exception-free. *)
let validate_commitment params (cm : commitment) =
  let ( let* ) = Result.bind in
  let* () =
    match validate_params params with
    | Ok () -> Ok ()
    | Error e -> E.error E.Params (param_error_to_string e)
  in
  if String.length cm.root <> 32 then
    E.errorf E.Shape "commitment root has %d bytes, wanted 32" (String.length cm.root)
  else if cm.num_vars < 0 || cm.num_vars > max_num_vars then
    E.errorf E.Params "num_vars %d outside [0, %d]" cm.num_vars max_num_vars
  else begin
    let n = 1 lsl cm.num_vars in
    let rows = min params.rows n in
    if cm.mat_rows <> rows then
      E.errorf E.Params "mat_rows %d inconsistent with layout (wanted %d)" cm.mat_rows rows
    else if cm.mat_cols <> n / rows then
      E.errorf E.Params "mat_cols %d inconsistent with layout (wanted %d)" cm.mat_cols
        (n / rows)
    else Ok ()
  end

(* The positions in [0, n) that satisfy [p], in order. *)
let select n p = Array.of_list (List.filter p (List.init n Fun.id))

(* What decides one opened column, in the order the checks run. *)
type column_verdict =
  | Col_ok
  | Bad_index
  | Bad_height
  | Bad_path of string
  | Bad_u
  | Bad_proximity of int

let column_error k = function
  | Col_ok -> Ok ()
  | Bad_index -> E.errorf E.Consistency "column %d: index mismatch" k
  | Bad_height -> E.errorf E.Shape "column %d: wrong height" k
  | Bad_path reason -> E.errorf E.Merkle_mismatch "column %d: %s" k reason
  | Bad_u -> E.errorf E.Consistency "column %d: u consistency failed" k
  | Bad_proximity i -> E.errorf E.Consistency "column %d: proximity %d failed" k i

(* Every column of an opening in one batch, in stages: shapes, a transpose
   of the well-shaped columns into one [rows x nw] matrix, all leaves
   ({!Keccak.hash_cols_into}), all full-depth paths level by level
   ({!Merkle.check_paths}), then the combinations as one axpy per data row.
   [coeffs.(c)] are combination [c]'s row coefficients and [encoded.(c)]
   its encoded claim: eq(q_row) against u first, then each rho_i against
   proximity row i, shifted by mask row i when [zk]. A path of another
   length gets the scalar {!Merkle.check_path} and its reason. The verdict
   is the first failing column in opening order, with its first failing
   check. *)
let check_columns ~root ~indices ~rows ~data_rows ~zk ~coeffs ~encoded proof =
  let nq = Array.length indices in
  let col_pos = offsets proof.col_height and path_pos = offsets proof.path_len in
  let verdict =
    Array.init nq (fun k ->
        if proof.col_index.(k) <> indices.(k) then Bad_index
        else if proof.col_height.(k) <> rows then Bad_height
        else Col_ok)
  in
  let shaped = select nq (fun k -> verdict.(k) = Col_ok) in
  let nw = Array.length shaped in
  let mat = Fv.create (rows * nw) in
  Array.iteri
    (fun w k ->
      for r = 0 to rows - 1 do
        Fv.unsafe_set mat ((r * nw) + w) (Fv.unsafe_get proof.col_values (col_pos.(k) + r))
      done)
    shaped;
  let leaves = Fv.create (4 * nw) in
  if nw > 0 then Keccak.hash_cols_into ~rows ~cols:nw mat ~dst:leaves;
  (* Merkle: code lengths are powers of two, so the tree is unpadded and
     every honest path is [depth] long. *)
  let depth = Merkle.path_length (Fv.length encoded.(0)) in
  let full = select nw (fun w -> proof.path_len.(shaped.(w)) = depth) in
  let full_leaves = Fv.create (4 * Array.length full) in
  Array.iteri
    (fun b w -> Fv.blit ~src:leaves ~src_pos:(4 * w) ~dst:full_leaves ~dst_pos:(4 * b) ~len:4)
    full;
  let on_root =
    Merkle.check_paths ~root ~depth
      ~index:(Array.map (fun w -> indices.(shaped.(w))) full)
      ~leaves:full_leaves ~paths:proof.paths
      ~path_pos:(Array.map (fun w -> 4 * path_pos.(shaped.(w))) full)
  in
  Array.iteri
    (fun b w -> if not on_root.(b) then verdict.(shaped.(w)) <- Bad_path "root mismatch")
    full;
  Array.iteri
    (fun w k ->
      let len = proof.path_len.(k) in
      if len <> depth then begin
        let path = List.init len (fun d -> Keccak.digest_at proof.paths (path_pos.(k) + d)) in
        match
          Merkle.check_path ~root ~index:indices.(k) ~leaf:(Keccak.digest_at leaves w) ~path
        with
        | Ok () -> ()
        | Error reason -> verdict.(k) <- Bad_path reason
      end)
    shaped;
  (* acc.(c) = coeffs.(c)^T (data rows of mat), plus mask row c - 1 for a
     proximity combination under zk. *)
  let ncomb = Array.length coeffs in
  let acc = Array.init ncomb (fun _ -> Fv.create nw) in
  Array.iter Fv.zero acc;
  for r = 0 to data_rows - 1 do
    let row = Fv.sub_view mat ~pos:(r * nw) ~len:nw in
    Array.iteri (fun c dst -> Fv.axpy_into ~dst coeffs.(c).(r) row) acc
  done;
  if zk then
    for c = 1 to ncomb - 1 do
      Fv.add_into ~dst:acc.(c) acc.(c) (Fv.sub_view mat ~pos:((data_rows + c - 1) * nw) ~len:nw)
    done;
  Array.iteri
    (fun w k ->
      if verdict.(k) = Col_ok then begin
        let j = indices.(k) in
        let rec first c =
          if c = ncomb then Col_ok
          else if Gf.equal (Fv.get acc.(c) w) (Fv.get encoded.(c) j) then first (c + 1)
          else if c = 0 then Bad_u
          else Bad_proximity (c - 1)
        in
        verdict.(k) <- first 0
      end)
    shaped;
  let rec scan k =
    if k = nq then Ok ()
    else if verdict.(k) = Col_ok then scan (k + 1)
    else column_error k verdict.(k)
  in
  scan 0

let verify_eval ?engine params (cm : commitment) transcript point value proof =
  ignore (engine : Zk_pcs.Engine.t option);
  let module Code = (val params.code : Zk_ecc.Linear_code.S) in
  let ( let* ) = Result.bind in
  let* () = validate_commitment params cm in
  let cols = cm.mat_cols in
  let* () =
    if Array.length point <> cm.num_vars then E.error E.Params "point dimension mismatch"
    else Ok ()
  in
  let q_row, q_col = split_point cm point in
  Transcript.absorb_gf transcript "orion/point" point;
  (* Recreate the proximity challenges in transcript order. *)
  let* rhos =
    if Array.length proof.proximity <> params.proximity_count then
      E.error E.Shape "wrong number of proximity vectors"
    else if Array.exists (fun v -> Fv.length v <> cols) proof.proximity then
      E.error E.Shape "proximity vector has wrong length"
    else
      Ok
        (Array.map
           (fun v ->
             let rho = Transcript.challenge_gf_vec transcript "orion/rho" cm.mat_rows in
             Transcript.absorb_fv transcript "orion/proximity" v;
             rho)
           proof.proximity)
  in
  let* () =
    if Fv.length proof.u = cols then Ok () else E.error E.Shape "u has wrong length"
  in
  Transcript.absorb_fv transcript "orion/u" proof.u;
  let bound = code_length params cm in
  let indices =
    Transcript.challenge_indices transcript "orion/columns" ~bound ~count:Code.query_count
  in
  let* () =
    if num_openings proof <> Code.query_count then
      E.error E.Shape "wrong number of column openings"
    else if not (well_formed proof) then
      E.error E.Shape "column openings do not match their buffers"
    else Ok ()
  in
  (* The verifier encodes the claimed combinations itself (O(cols log cols)). *)
  let encode v =
    let dst = Fv.create bound in
    Code.encode_row_into ~src:v ~dst;
    dst
  in
  let* () =
    check_columns ~root:cm.root ~indices
      ~rows:(cm.mat_rows + if params.zk then params.proximity_count else 0)
      ~data_rows:cm.mat_rows ~zk:params.zk
      ~coeffs:(Array.append [| Mle.eq_table q_row |] rhos)
      ~encoded:(Array.map encode (Array.append [| proof.u |] proof.proximity))
      proof
  in
  (* Finally the claimed evaluation. *)
  if Gf.equal (dot proof.u (Mle.eq_fv q_col)) value then Ok ()
  else E.error E.Consistency "evaluation mismatch"

(* 8 bytes per field element and per column index, 32 per digest (= 4
   lanes of 8 bytes). *)
let proof_size_bytes _params (_cm : commitment) proof =
  8
  * (Fv.length proof.u
    + Array.fold_left (fun acc v -> acc + Fv.length v) 0 proof.proximity
    + num_openings proof + Fv.length proof.col_values + Fv.length proof.paths)
