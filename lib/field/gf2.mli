(** The quadratic extension GF(p^2) of Goldilocks-64, with [phi^2 = 7]
    (7 is a quadratic non-residue mod p; see the tests).

    Sec. VII-A's 128-bit configuration amplifies the 64-bit field's soundness
    by running every sumcheck three times. Sampling the verifier challenges
    from this extension instead is the standard alternative — one run with
    ~2^128 challenge space — at the cost of 3 base multiplications per
    extension multiplication. {!Zk_sumcheck.Sumcheck_ext} implements that
    variant; the ablation bench compares the two. *)

type t = { c0 : Gf.t; c1 : Gf.t }
(** [c0 + c1 * phi]. *)

val zero : t
val one : t
val phi : t
val of_base : Gf.t -> t
val equal : t -> t -> bool
val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val square : t -> t
val mul_base : t -> Gf.t -> t
val pow : t -> int64 -> t
val random : Zk_util.Rng.t -> t
val pp : Format.formatter -> t -> unit
