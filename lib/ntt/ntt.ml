module type FIELD = sig
  type t

  val zero : t
  val one : t
  val equal : t -> t -> bool
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val inv : t -> t
  val of_int : int -> t
  val two_adicity : int
  val root_of_unity : int -> t
end

module type S = sig
  type elt
  type plan

  val plan : int -> plan
  val size : plan -> int
  val forward : plan -> elt array -> unit
  val inverse : plan -> elt array -> unit
  val forward_copy : plan -> elt array -> elt array
  val inverse_copy : plan -> elt array -> elt array
  val butterfly_count : int -> int
end

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2_exact n =
  if not (is_pow2 n) then invalid_arg "Ntt: size must be a power of two";
  let rec go k m = if m = 1 then k else go (k + 1) (m lsr 1) in
  go 0 n

module Make (F : FIELD) : S with type elt = F.t = struct
  type elt = F.t

  type plan = {
    n : int;
    log_n : int;
    twiddles : F.t array; (* w^0 .. w^(n/2-1) for the primitive n-th root w *)
    inv_twiddles : F.t array;
    n_inv : F.t;
  }

  let plans : (int, plan) Hashtbl.t = Hashtbl.create 16

  (* Plans may be demanded from any domain (a prover running on a pool
     worker), so the cache needs a lock; a plan itself is immutable after
     construction. *)
  let plans_lock = Mutex.create ()

  let make_plan n =
    let log_n = log2_exact n in
    if log_n > F.two_adicity then invalid_arg "Ntt.plan: size exceeds 2-adicity";
    let w = F.root_of_unity log_n in
    let w_inv = F.inv w in
    let half = max 1 (n / 2) in
    let twiddles = Array.make half F.one in
    let inv_twiddles = Array.make half F.one in
    for i = 1 to half - 1 do
      twiddles.(i) <- F.mul twiddles.(i - 1) w;
      inv_twiddles.(i) <- F.mul inv_twiddles.(i - 1) w_inv
    done;
    { n; log_n; twiddles; inv_twiddles; n_inv = F.inv (F.of_int n) }

  let plan n =
    Mutex.lock plans_lock;
    match Hashtbl.find_opt plans n with
    | Some p ->
      Mutex.unlock plans_lock;
      p
    | None ->
      Mutex.unlock plans_lock;
      let p = make_plan n in
      Mutex.lock plans_lock;
      (* Another domain may have raced us; keep whichever landed first so
         every caller shares one plan per size. *)
      let p =
        match Hashtbl.find_opt plans n with
        | Some q -> q
        | None ->
          Hashtbl.add plans n p;
          p
      in
      Mutex.unlock plans_lock;
      p

  let size p = p.n

  let bit_reverse_permute a =
    let n = Array.length a in
    let log_n = log2_exact n in
    for i = 0 to n - 1 do
      (* Reverse the low log_n bits of i. *)
      let rec rev acc k x =
        if k = 0 then acc else rev ((acc lsl 1) lor (x land 1)) (k - 1) (x lsr 1)
      in
      let j = rev 0 log_n i in
      if j > i then begin
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t
      end
    done

  (* Butterfly loop with unsafe accesses: the length check above pins
     [Array.length a = n]; inside, [k + j + half <= k + len - 1 < n] (the
     outer while stops at k = n) and [j * stride <= (half - 1) * n / len
     < n / 2], so every index is in bounds. *)
  let transform twiddles p a =
    let n = p.n in
    if Array.length a <> n then invalid_arg "Ntt: array length mismatch";
    bit_reverse_permute a;
    let len = ref 2 in
    while !len <= n do
      let half = !len / 2 in
      let stride = n / !len in
      let k = ref 0 in
      while !k < n do
        for j = 0 to half - 1 do
          let w = Array.unsafe_get twiddles (j * stride) in
          let u = Array.unsafe_get a (!k + j) in
          let t = F.mul w (Array.unsafe_get a (!k + j + half)) in
          Array.unsafe_set a (!k + j) (F.add u t);
          Array.unsafe_set a (!k + j + half) (F.sub u t)
        done;
        k := !k + !len
      done;
      len := !len * 2
    done

  let forward p a = transform p.twiddles p a

  let inverse p a =
    transform p.inv_twiddles p a;
    for i = 0 to p.n - 1 do
      a.(i) <- F.mul a.(i) p.n_inv
    done

  let forward_copy p a =
    let b = Array.copy a in
    forward p b;
    b

  let inverse_copy p a =
    let b = Array.copy a in
    inverse p b;
    b

  let butterfly_count n = n / 2 * log2_exact n
end

module Gf_ntt = Make (Zk_field.Gf)

module Fr_ntt = Make (struct
  include Zk_field.Fr_bls
end)

(* --- Unboxed Goldilocks NTT over flat Fv buffers ------------------------

   Same radix-2 algorithm as [Gf_ntt] (which stays as the boxed correctness
   oracle), but data and twiddles live in Bigarray-backed [Fv.t] vectors:
   every butterfly runs on unboxed int64 with zero heap traffic (in release
   builds, where cross-module [@inline] is effective — see README). *)

module Fv = Nocap_vec.Fv
module Gf = Zk_field.Gf
module Native = Nocap_native.Native

(* Shared Goldilocks twiddle tables, keyed by log2 size and built lazily
   under a double-checked mutex (plans are demanded from worker domains).
   One [tables] per size feeds both the OCaml butterflies and the native C
   kernels — the C side reads the very same Fv buffers, so the two paths
   cannot drift. *)
module Gf_twiddles = struct
  type tables = {
    pow : Fv.t; (* w^0 .. w^(n/2-1) for the primitive n-th root w *)
    inv_pow : Fv.t;
    n_inv : Gf.t;
  }

  let cache : (int, tables) Hashtbl.t = Hashtbl.create 16

  let lock = Mutex.create ()

  let make log_n =
    if log_n > Gf.two_adicity then invalid_arg "Ntt.Gf_fv.plan: size exceeds 2-adicity";
    let n = 1 lsl log_n in
    let w = Gf.root_of_unity log_n in
    let w_inv = Gf.inv w in
    let half = max 1 (n / 2) in
    let pow = Fv.create half in
    let inv_pow = Fv.create half in
    Fv.set pow 0 Gf.one;
    Fv.set inv_pow 0 Gf.one;
    for i = 1 to half - 1 do
      Fv.set pow i (Gf.mul (Fv.get pow (i - 1)) w);
      Fv.set inv_pow i (Gf.mul (Fv.get inv_pow (i - 1)) w_inv)
    done;
    { pow; inv_pow; n_inv = Gf.inv (Gf.of_int n) }

  let get log_n =
    Mutex.lock lock;
    match Hashtbl.find_opt cache log_n with
    | Some t ->
      Mutex.unlock lock;
      t
    | None ->
      Mutex.unlock lock;
      let t = make log_n in
      Mutex.lock lock;
      let t =
        match Hashtbl.find_opt cache log_n with
        | Some u -> u
        | None ->
          Hashtbl.add cache log_n t;
          t
      in
      Mutex.unlock lock;
      t
end

module Gf_fv = struct
  type plan = {
    n : int;
    twiddles : Fv.t; (* w^0 .. w^(n/2-1) *)
    inv_twiddles : Fv.t;
    n_inv : Gf.t;
  }

  let plan n =
    let t = Gf_twiddles.get (log2_exact n) in
    { n; twiddles = t.Gf_twiddles.pow; inv_twiddles = t.Gf_twiddles.inv_pow;
      n_inv = t.Gf_twiddles.n_inv }

  let size p = p.n

  let twiddles p = p.twiddles
  let n_inv p = p.n_inv

  (* One C call per transform: the kernel runs the bit-reverse and the
     radix-2 butterflies against the shared twiddle table. *)
  let check p a = if Fv.length a <> p.n then invalid_arg "Ntt.Gf_fv: length mismatch"

  let forward p a =
    check p a;
    Native.ntt_forward a p.twiddles

  let inverse p a =
    check p a;
    Native.ntt_inverse a p.inv_twiddles p.n_inv
end
