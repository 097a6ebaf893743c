(** The BLS12-381 G1 curve group: [y^2 = x^3 + 4] over {!Zk_field.Fq_bls}.

    This is the group Groth16's prover does its multi-scalar multiplications
    in — the workload PipeZK accelerates and the reason curve-based SNARKs are
    hard to speed up (each point addition costs ~16 381-bit field
    multiplications, Sec. III). Points use Jacobian projective coordinates so
    additions need no field inversions. *)

module Fq = Zk_field.Fq_bls
module Fr = Zk_field.Fr_bls

type t
(** A curve point (including infinity). *)

val infinity : t
val generator : t
(** The standard BLS12-381 G1 generator. *)

val is_infinity : t -> bool
val of_affine : x:Fq.t -> y:Fq.t -> t
(** @raise Invalid_argument if the point is not on the curve. *)

val to_affine : t -> (Fq.t * Fq.t) option
(** [None] for infinity. *)

val is_on_curve : t -> bool
val equal : t -> t -> bool
val neg : t -> t
val double : t -> t
val add : t -> t -> t
val scalar_mul : Fr.t -> t -> t
(** Double-and-add over the scalar's canonical bits. *)

val random : Zk_util.Rng.t -> t
(** A random multiple of the generator. *)
