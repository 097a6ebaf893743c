(** Number-theoretic transforms.

    The functor works over any field with enough 2-adicity; it is instantiated
    over Goldilocks-64 ({!Gf_ntt}, the transform NoCap's NTT FU performs) and
    over the BLS12-381 scalar field ({!Fr_ntt}) for the Groth16 baseline's QAP
    arithmetic. *)

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
  (** Precomputed twiddle factors for one transform size. *)

  val plan : int -> plan
  (** [plan n] for a power-of-two [n] up to [2^two_adicity]. Plans are
      cached. *)

  val size : plan -> int

  val forward : plan -> elt array -> unit
  (** In-place forward NTT (natural order in, natural order out). *)

  val inverse : plan -> elt array -> unit
  (** In-place inverse NTT; [inverse p (forward p a)] is the identity. *)

  val forward_copy : plan -> elt array -> elt array
  val inverse_copy : plan -> elt array -> elt array

  val butterfly_count : int -> int
  (** [butterfly_count n] = [n/2 * log2 n]: work metric used by the
      performance model. *)
end

module Make (F : FIELD) : S with type elt = F.t

module Gf_ntt : S with type elt = Zk_field.Gf.t

module Fr_ntt : S with type elt = Zk_field.Fr_bls.t

(** Shared Goldilocks twiddle tables, built lazily per log2 size under a
    Domain-safe double-checked mutex and read by the native C kernels. *)
module Gf_twiddles : sig
  type tables = {
    pow : Nocap_vec.Fv.t;  (** w^0 .. w^(n/2-1) for the primitive n-th root *)
    inv_pow : Nocap_vec.Fv.t;
    n_inv : Zk_field.Gf.t;
  }

  val get : int -> tables
  (** [get log_n]; cached, safe to demand from any domain. *)
end

(** Unboxed Goldilocks NTT over flat {!Nocap_vec.Fv} buffers: the same
    radix-2 transform as {!Gf_ntt} (which remains the boxed correctness
    oracle), run by the C kernel layer ({!Nocap_native.Native.ntt_forward})
    against the shared twiddle tables. Results are bit-identical to
    {!Gf_ntt} on the same input in every SIMD tier. *)
module Gf_fv : sig
  type plan

  val plan : int -> plan
  (** Cached ({!Gf_twiddles}), safe to demand from any domain. *)

  val size : plan -> int

  val twiddles : plan -> Nocap_vec.Fv.t
  (** The shared forward twiddle table (read-only by convention); exposed
      for the native kernels and the equivalence tests. *)

  val n_inv : plan -> Zk_field.Gf.t

  val forward : plan -> Nocap_vec.Fv.t -> unit
  (** In-place forward NTT. *)

  val inverse : plan -> Nocap_vec.Fv.t -> unit

end
