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
  u : Gf.t array;
  proximity : Gf.t array array;
  columns : (int * Gf.t array * Merkle.digest list) array;
}

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
let commit_stream ?engine ?budget_bytes params rng ~num_vars ~read =
  (match validate_params params with
  | Ok () -> ()
  | Error e -> invalid_arg ("Orion.commit: " ^ param_error_to_string e));
  if num_vars < 0 || num_vars > 62 then invalid_arg "Orion.commit_stream: num_vars";
  let pool = Option.bind engine Zk_pcs.Engine.pool in
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
    Pool.run ?pool ~grain:(Pool.grain_of_ns row_ns) ~n:bh (fun lo hi ->
        for r = lo to hi - 1 do
          Code.encode_row_into
            ~src:(Fv.sub_view src ~pos:(r * cols) ~len:cols)
            ~dst:(Fv.sub_view enc_buf ~pos:(r * code_len) ~len:code_len)
        done);
    let col_ns =
      max 1 (((bh + Keccak.rate_lanes - 1) / Keccak.rate_lanes) * Keccak.block_ns ())
    in
    Pool.run ?pool ~grain:(Pool.grain_of_ns col_ns) ~n:code_len (fun c_lo c_hi ->
        (* Block-local row indices: r_lo is a multiple of the sponge rate,
           so [r mod rate_lanes] — the only thing absorb derives from the
           row index — matches the absolute row's. *)
        Keccak.Col_hash.absorb col_hash enc_buf ~row_stride:code_len ~r_lo:0 ~r_hi:bh
          ~c_lo ~c_hi)
  done;
  let leaves = Fv.create (4 * code_len) in
  Pool.run ?pool
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
  commit_stream ?engine
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

(* coeffs^T over the DATA rows, one row block at a time, as an axpy per
   row over each column chunk. Column chunks are independent, and within a
   column the accumulation order over rows is the serial one, so the
   combination is byte-identical for every domain count and block size.
   The accumulator is a flat vector; only the final result is
   materialized as a boxed array for the (public) proof record. *)
(* Staging for one row block read back from a spill file; RAM-backed rows
   are read in place. *)
let row_staging committed =
  let spilled = Spill.is_spilled committed.all_rows in
  Fv.create (if spilled then committed.row_block * committed.c_commitment.mat_cols else 0)

let row_combination ?pool committed coeffs =
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
    Pool.run ?pool ~grain:(Pool.grain_of_ns (max 1 (bh * 4))) ~n:cols (fun lo hi ->
        let dst = Fv.sub_view out ~pos:lo ~len:(hi - lo) in
        for i = 0 to bh - 1 do
          Fv.axpy_into ~dst coeffs.(r0 + i)
            (Fv.sub_view mat ~pos:((i * cols) + lo) ~len:(hi - lo))
        done);
    r := r0 + bh
  done;
  Fv.to_array out

(* Column openings: one more re-encode pass over the stored rows,
   gathering only the queried codeword positions — the encoded matrix is
   never materialized. The encoder is deterministic, so the gathered
   values are the committed codeword's. *)
let gather_columns ?pool committed indices =
  let module Code = (val committed.c_params.code : Zk_ecc.Linear_code.S) in
  let cols = committed.c_commitment.mat_cols in
  let code_len = Code.blowup * cols in
  let row_block = committed.row_block in
  let nq = Array.length indices in
  let enc_rows = committed.enc_rows in
  let col_vals = Array.init nq (fun _ -> Array.make enc_rows Gf.zero) in
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
    Pool.run ?pool ~grain:(Pool.grain_of_ns row_ns) ~n:bh (fun lo hi ->
        for r = lo to hi - 1 do
          Code.encode_row_into
            ~src:(Fv.sub_view src ~pos:(r * cols) ~len:cols)
            ~dst:(Fv.sub_view enc_buf ~pos:(r * code_len) ~len:code_len)
        done);
    for q = 0 to nq - 1 do
      let j = indices.(q) in
      let dst = col_vals.(q) in
      for r = 0 to bh - 1 do
        dst.(!r_lo + r) <- Fv.get enc_buf ((r * code_len) + j)
      done
    done;
    r_lo := !r_lo + bh
  done;
  Array.init nq (fun q -> (indices.(q), col_vals.(q), Merkle.path committed.tree indices.(q)))

let prove_eval ?engine params committed transcript point =
  let pool = Option.bind engine Zk_pcs.Engine.pool in
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
        let v = row_combination ?pool committed rho in
        let v =
          if params.zk then
            Array.mapi (fun j x -> Gf.add x (Fv.get committed.masks ((i * cols) + j))) v
          else v
        in
        Transcript.absorb_gf transcript "orion/proximity" v;
        v)
  in
  (* Consistency: the eq(q_row) combination, whose inner product with
     eq(q_col) is the evaluation. *)
  let eq_row = Mle.eq_table q_row in
  let u = row_combination ?pool committed eq_row in
  Transcript.absorb_gf transcript "orion/u" u;
  (* Column queries over the codeword domain. *)
  let bound = code_length params cm in
  let indices =
    Transcript.challenge_indices transcript "orion/columns" ~bound ~count:Code.query_count
  in
  let columns = gather_columns ?pool committed indices in
  let eq_col = Mle.eq_table q_col in
  let value = ref Gf.zero in
  for j = 0 to cols - 1 do
    value := Gf.add !value (Gf.mul u.(j) eq_col.(j))
  done;
  (!value, { u; proximity; columns })

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
    else if Array.exists (fun v -> Array.length v <> cols) proof.proximity then
      E.error E.Shape "proximity vector has wrong length"
    else
      Ok
        (Array.map
           (fun v ->
             let rho = Transcript.challenge_gf_vec transcript "orion/rho" cm.mat_rows in
             Transcript.absorb_gf transcript "orion/proximity" v;
             rho)
           proof.proximity)
  in
  let* () =
    if Array.length proof.u = cols then Ok () else E.error E.Shape "u has wrong length"
  in
  Transcript.absorb_gf transcript "orion/u" proof.u;
  let bound = code_length params cm in
  let indices =
    Transcript.challenge_indices transcript "orion/columns" ~bound ~count:Code.query_count
  in
  let* () =
    if Array.length proof.columns = Code.query_count then Ok ()
    else E.error E.Shape "wrong number of column openings"
  in
  (* The verifier encodes the claimed combinations itself (O(cols log cols)). *)
  let encoded_u = Code.encode proof.u in
  let encoded_prox = Array.map Code.encode proof.proximity in
  let eq_row = Mle.eq_table q_row in
  let expected_rows = cm.mat_rows + if params.zk then params.proximity_count else 0 in
  let check_column k =
    let j, col, path = proof.columns.(k) in
    if j <> indices.(k) then E.errorf E.Consistency "column %d: index mismatch" k
    else if Array.length col <> expected_rows then
      E.errorf E.Shape "column %d: wrong height" k
    else begin
      match
        Merkle.check_path ~root:cm.root ~index:j ~leaf:(Merkle.leaf_of_column col) ~path
      with
      | Error reason -> E.errorf E.Merkle_mismatch "column %d: %s" k reason
      | Ok () ->
        (* Consistency of u with the committed data rows at this column. *)
        (* A plain loop: the accumulator stays an unboxed local (a closure
           capturing it would box every partial sum). *)
        let dot coeffs =
          let acc = ref Gf.zero in
          for r = 0 to Array.length coeffs - 1 do
            acc := Gf.add !acc (Gf.mul coeffs.(r) col.(r))
          done;
          !acc
        in
        if not (Gf.equal encoded_u.(j) (dot eq_row)) then
          E.errorf E.Consistency "column %d: u consistency failed" k
        else begin
          (* Proximity combinations, each shifted by its mask row. *)
          let rec prox i =
            if i >= params.proximity_count then Ok ()
            else begin
              let expected = dot rhos.(i) in
              let expected =
                if params.zk then Gf.add expected col.(cm.mat_rows + i) else expected
              in
              if Gf.equal encoded_prox.(i).(j) expected then prox (i + 1)
              else E.errorf E.Consistency "column %d: proximity %d failed" k i
            end
          in
          prox 0
        end
    end
  in
  let rec all k =
    if k >= Array.length proof.columns then Ok ()
    else
      let* () = check_column k in
      all (k + 1)
  in
  let* () = all 0 in
  (* Finally the claimed evaluation. *)
  let eq_col = Mle.eq_table q_col in
  let v = ref Gf.zero in
  for j = 0 to cols - 1 do
    v := Gf.add !v (Gf.mul proof.u.(j) eq_col.(j))
  done;
  if Gf.equal !v value then Ok () else E.error E.Consistency "evaluation mismatch"

let proof_size_bytes params (cm : commitment) proof =
  let field_bytes = 8 and digest_bytes = 32 and index_bytes = 8 in
  let u_bytes = field_bytes * Array.length proof.u in
  let prox_bytes =
    Array.fold_left (fun acc v -> acc + (field_bytes * Array.length v)) 0 proof.proximity
  in
  let col_bytes =
    Array.fold_left
      (fun acc (_, col, path) ->
        acc + index_bytes + (field_bytes * Array.length col)
        + (digest_bytes * List.length path))
      0 proof.columns
  in
  ignore params;
  ignore cm;
  u_bytes + prox_bytes + col_bytes
