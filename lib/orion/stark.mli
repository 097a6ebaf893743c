(** A minimal STARK: the AIR-over-FRI construction of the zkSTARK family the
    paper groups Spartan+Orion with (Sec. II-A: transparent hash-based
    schemes; Sec. IV-E: "NoCap can support ... STARKs").

    The statement is a Fibonacci-style execution trace: the prover knows a
    length-[n] trace [t] with [t_{i+2} = t_{i+1} + t_i], starting from public
    [t_0, t_1] and ending in the public claimed value [t_{n-1}]. The trace is
    interpolated over an [n]-point domain, low-degree-extended 4x and Merkle-
    committed; the transition and boundary constraints become quotient
    polynomials whose random linear combination is proven low-degree with
    {!Fri}; each FRI query is additionally checked for consistency against
    Merkle openings of the trace itself, tying the low-degree claim to the
    committed execution.

    All primitives are NoCap FU operations — the same NTT, SHA3, and vector
    arithmetic as Spartan+Orion. *)

module Gf = Zk_field.Gf

type openings = {
  values : Nocap_vec.Fv.t;
      (** per FRI query, the six trace-LDE values the composition check
          needs: the transition's three rows at the query's low point, then
          at its high point *)
  paths : Nocap_vec.Fv.t;
      (** per value, its path in the trace tree: [log2 (4n)] digests,
          bottom-up, 4 lanes each *)
}
(** The trace openings, flat like {!Fri.queries}. *)

type proof = { trace_root : Zk_merkle.Merkle.digest; fri : Fri.proof; openings : openings }

val trace_of : n:int -> a0:Gf.t -> a1:Gf.t -> Gf.t array
(** The honest Fibonacci trace (power-of-two [n >= 4]). *)

val prove : n:int -> a0:Gf.t -> a1:Gf.t -> proof * Gf.t
(** Prove the trace; returns the proof and the public final value. *)

val verify :
  n:int -> a0:Gf.t -> a1:Gf.t -> claimed_last:Gf.t -> proof -> (unit, string) result
(** {!Fri.verify}, then the openings: their count, then query by query its
    six values, each path's length and root (one batched
    {!Zk_merkle.Merkle.check_paths} for all), and the composition. *)

val proof_size_bytes : proof -> int
