(* Boxed references for the two linear codes' row encoder
   [encode_row_into]: Reed-Solomon as a zero-extended [Gf_ntt.forward] (and
   one codeword position by Horner evaluation), the expander code as its
   recursive definition over [Gf.t array]s with each sparse graph row
   materialized. *)

module Gf = Zk_field.Gf
module Ntt = Zk_ntt.Ntt.Gf_ntt
module Rng = Zk_util.Rng

let blowup = 4

let check_pow2 name n =
  if n = 0 || n land (n - 1) <> 0 then
    invalid_arg (name ^ ": message length must be a power of two")

let log2 m =
  let rec go k x = if x = 1 then k else go (k + 1) (x lsr 1) in
  go 0 m

(* The message as polynomial coefficients, evaluated on the 4n-th roots of
   unity. *)
let rs_encode msg =
  let n = Array.length msg in
  check_pow2 "Ecc_oracle.rs_encode" n;
  let buf = Array.make (blowup * n) Gf.zero in
  Array.blit msg 0 buf 0 n;
  Ntt.forward (Ntt.plan (blowup * n)) buf;
  buf

(* Position [i] of the RS codeword: the message polynomial at w^i, in
   O(n) without encoding the rest. *)
let codeword_at msg i =
  let n = Array.length msg in
  let m = blowup * n in
  if i < 0 || i >= m then invalid_arg "Ecc_oracle.codeword_at";
  let x = Gf.pow (Gf.root_of_unity (log2 m)) (Int64.of_int i) in
  let acc = ref Gf.zero in
  for j = n - 1 downto 0 do
    acc := Gf.add (Gf.mul !acc x) msg.(j)
  done;
  !acc

(* The expander code's graphs: row [row] of graph [tag] for [n]-element
   inputs is [degree] (column, coefficient) pairs from an Rng seeded by
   (tag, n, row), each pair drawn column first. *)
let base_size = 32

let degree = 8

let sparse_row ~tag ~n ~row =
  let seed =
    Int64.add
      (Int64.mul (Int64.of_int n) 0x9E3779B97F4A7C15L)
      (Int64.add (Int64.mul (Int64.of_int row) 6364136223846793005L) (Int64.of_int tag))
  in
  let rng = Rng.create seed in
  Array.init degree (fun _ ->
      let col = Rng.int rng n in
      let coeff = Gf.add Gf.one (Gf.of_int64 (Int64.rem (Rng.next rng) (Int64.sub Gf.p 1L))) in
      (col, coeff))

let apply_graph ~tag ~rows x =
  Array.init rows (fun r ->
      Array.fold_left
        (fun acc (c, coeff) -> Gf.add acc (Gf.mul coeff x.(c)))
        Gf.zero
        (sparse_row ~tag ~n:(Array.length x) ~row:r))

(* Compress to n/2 through graph 1, encode recursively (2n symbols), expand
   the message and that codeword through graph 2 to n more: [msg; z; w]. *)
let rec expander_encode msg =
  let n = Array.length msg in
  check_pow2 "Ecc_oracle.expander_encode" n;
  if n <= base_size then rs_encode msg
  else begin
    let z = expander_encode (apply_graph ~tag:1 ~rows:(n / 2) msg) in
    let w = apply_graph ~tag:2 ~rows:n (Array.append msg z) in
    Array.concat [ msg; z; w ]
  end

(* The reference for a code module, by its name. *)
let encode (module Code : Zk_ecc.Linear_code.S) =
  match Code.name with
  | "reed-solomon" -> rs_encode
  | "expander" -> expander_encode
  | name -> invalid_arg ("Ecc_oracle.encode: no reference for " ^ name)
