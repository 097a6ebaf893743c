(** Fiat-Shamir transcript.

    Makes the interactive Spartan and Orion protocols non-interactive: the
    prover and verifier absorb the same protocol messages and derive verifier
    challenges by hashing the running state, so soundness reduces to SHA3's
    collision/correlation resistance. Both sides must absorb byte-identical
    data in the same order.

    Every absorb and every challenge mix is one SHA3-256 of the running
    state followed by the labelled message; every squeeze one SHA3-256 of
    the state followed by ["sq"] and a squeeze counter in decimal. A
    vector's squeezes are independent of each other, so
    {!challenge_gf_vec} and {!challenge_indices} hash them in batches
    ({!Keccak.sha3_blocks_into}); the bytes hashed, and so every challenge,
    are those of squeezing one at a time. *)

type t

val create : string -> t
(** [create domain] starts a transcript bound to a domain-separation label. *)

val absorb_bytes : t -> string -> bytes -> unit
(** [absorb_bytes t label data] mixes labelled bytes into the state. *)

val absorb_gf : t -> string -> Zk_field.Gf.t array -> unit
(** Absorb a vector of field elements. *)

val absorb_fv : t -> string -> Nocap_vec.Fv.t -> unit
(** {!absorb_gf} of a flat vector: the same bytes, the same state. *)

val absorb_digest : t -> string -> Keccak.digest -> unit

val absorb_int : t -> string -> int -> unit

val challenge_gf : t -> string -> Zk_field.Gf.t
(** Squeeze one field-element challenge (uniform up to the negligible
    [2^64 mod p] bias removed by rejection). *)

val challenge_gf_vec : t -> string -> int -> Zk_field.Gf.t array

val challenge_indices : t -> string -> bound:int -> count:int -> int array
(** [challenge_indices t label ~bound ~count] squeezes [count] indices in
    [\[0, bound)] — the Orion column-query sampler. Indices may repeat, as in
    the reference implementation. *)

val hash_count : t -> int
(** Number of SHA3 compressions this transcript has performed (instrumentation
    for the performance model). *)

val state : t -> Keccak.digest
(** The running state: the digest the next mix or squeeze hashes first. *)

val with_rejected_squeeze : int -> (unit -> 'a) -> 'a
(** Test hook, in the style of [Native.with_avx2_only]: run [f] with the
    digest of every squeeze whose counter is [k] replaced by 32 0xFF bytes,
    so no chunk of it is a field element and that challenge must squeeze
    again (the ~2^-128 event the batched sampler handles by rewinding).
    Restores the previous hook after. *)

val rejected_squeeze : unit -> int option
(** The counter {!with_rejected_squeeze} currently forces, for an oracle
    that must force the same squeeze. *)
