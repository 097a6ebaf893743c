(** Multi-limb big-integer gadgets (base 2^16 limbs) — the machinery RSA-class
    circuits need: the paper's RSA benchmark "operates on large prime fields,
    typically primes of 2,048 bits" (Sec. VII-B), far beyond one Goldilocks
    element.

    A number is a little-endian array of limb wires, each range-checked to
    16 bits. Products are computed column-wise with witnessed carry
    normalization; modular reduction witnesses the quotient and remainder and
    checks [x = q*m + r] limb-exactly plus [r < m] via a borrow chain. *)

type t = { limbs : Zk_r1cs.Builder.var array }
(** Little-endian, 16-bit limbs, each constrained. *)

val limb_bits : int
(** 16. *)

val of_int64 : Zk_r1cs.Builder.t -> secret:bool -> limbs:int -> int64 -> t
(** Allocate a constant-width number from an unsigned 64-bit value
    (must fit). *)

val to_int64 : Zk_r1cs.Builder.t -> t -> int64
(** Concrete value (must fit 64 bits unsigned); for tests and witnesses. *)

val constant : Zk_r1cs.Builder.t -> limbs:int -> int64 -> t
(** A public compile-time constant. *)

val mul : Zk_r1cs.Builder.t -> t -> t -> t
(** Full product: [n + m] limbs, carries witnessed and range-checked. *)

val add : Zk_r1cs.Builder.t -> t -> t -> t
(** Sum with carry normalization, [max n m + 1] limbs. *)

val assert_equal : Zk_r1cs.Builder.t -> t -> t -> unit
(** Limb-wise equality (widths may differ; excess limbs must be zero). *)

val less_than : Zk_r1cs.Builder.t -> t -> t -> Zk_r1cs.Builder.var
(** Boolean [a < b] via a borrow chain over equal-width operands. *)

val mod_reduce : Zk_r1cs.Builder.t -> t -> modulus:t -> t
(** [x mod m]: witnesses quotient and remainder, checks [x = q*m + r] and
    [r < m]. The quotient gets [length x] limbs. *)

val modexp :
  Zk_r1cs.Builder.t -> base:t -> exponent:int -> modulus:t -> t
(** Square-and-multiply over a public exponent, reducing after every step. *)
