(** Multiset hashing over Goldilocks-64.

    Spartan's SPARK compiler proves memory consistency of its sparse-matrix
    accesses with an offline memory check whose core is a multiset hash:
    a multiset S is digested as [H_gamma(S) = prod_{s in S} (gamma - s)] for
    a random [gamma], so two different multisets collide only when [gamma]
    hits a root of the difference polynomial (probability ~|S|/p). Over the
    64-bit Goldilocks field that is too weak on its own, which is why the
    paper runs 4 independent gamma instantiations (Sec. VII-A); this module
    implements exactly that. Tuples (address, value, timestamp) are first
    flattened with a per-instance combiner challenge [delta]. *)

type params = { gamma : Zk_field.Gf.t; delta : Zk_field.Gf.t }

val instantiations : int
(** 4, per Sec. VII-A. *)

val params_of_transcript : Zk_hash.Transcript.t -> params array
(** Draw the 4 independent (gamma, delta) instantiations. *)

type t
(** A combined multiset digest (one accumulator per instantiation). *)

val empty : params array -> t

val add : t -> Zk_field.Gf.t -> t
(** Add one field element to the multiset. *)

val add_tuple : t -> Zk_field.Gf.t array -> t
(** Add a tuple, flattened as [v_0 + delta v_1 + delta^2 v_2 + ...] per
    instantiation before the [(gamma - .)] factor. *)

val union : t -> t -> t
(** Digest of the multiset union (pointwise product of accumulators). *)

val equal : t -> t -> bool
(** Digest equality — equal for any two orderings of the same multiset. *)

val digest_of_list : params array -> Zk_field.Gf.t list -> t

val mults_per_element : int
(** Field multiplications per added element (one per instantiation): feeds
    the performance model. *)
