(** Fixed-width multi-precision arithmetic on little-endian [int64] limb
    arrays, interpreted as unsigned. This is the substrate for the BLS12-381
    fields used by the Groth16 baseline; no external bignum library is used. *)

val mul64 : int64 -> int64 -> int64 * int64
(** [mul64 a b] is the full 128-bit product [(hi, lo)] of two unsigned 64-bit
    values. *)

val add_carry : int64 -> int64 -> int64 -> int64 * int64
(** [add_carry a b c] with [c] in [{0,1}] is [(sum, carry_out)]. *)

val compare : int64 array -> int64 array -> int
(** Unsigned comparison of equal-length limb arrays. *)

val is_zero : int64 array -> bool

val add : int64 array -> int64 array -> int64 array * int64
(** Full addition; returns (limbs, carry). *)

val sub : int64 array -> int64 array -> int64 array * int64
(** Full subtraction; returns (limbs, borrow). *)

val mul : int64 array -> int64 array -> int64 array
(** Schoolbook product of an [n]-limb and an [m]-limb number, [n+m] limbs. *)

val neg_inv64 : int64 -> int64
(** [neg_inv64 m0] for odd [m0] is [-m0^-1 mod 2^64] (the Montgomery
    constant). *)

val bit : int64 array -> int -> bool
(** [bit x i] is bit [i] (little-endian) of [x]. *)

val bits : int64 array -> int
(** Position of the highest set bit plus one (0 for zero). *)

val of_hex : int -> string -> int64 array
(** [of_hex n s] parses a big-endian hex string (without "0x") into [n]
    little-endian limbs. *)

val to_hex : int64 array -> string
(** Big-endian hex rendering with leading zeros trimmed. *)
