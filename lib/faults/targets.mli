(** Fuzz targets for the in-tree proof backends.

    Each target fixes one statement (a small synthetic R1CS instance with a
    deterministic seed), proves it honestly once, and packages the proof
    bytes with a verification closure that replays the full untrusted
    pipeline: [proof_of_bytes] then [verify] against the regenerated
    statement. On top of the byte-level operators in {!Mutate}, every target
    carries typed structural mutators that decode the honest proof, corrupt
    one semantic field (a claimed evaluation, a round polynomial, a Merkle
    root or path, a query index), and re-serialize — corruptions a blind
    byte flipper is unlikely to synthesize, aimed at each check the verifier
    performs. *)

val statement : unit -> Zk_r1cs.R1cs.instance * Zk_field.Gf.t array
(** The fixed statement every target proves: the instance and its public
    io, for replaying a target's bytes through another verifier. *)

val orion : unit -> Fuzz.target
(** Spartan over the Orion PCS (the default backend). Structural mutators
    cover the Spartan layer (claimed evaluations, sumcheck round
    polynomials, repetition structure, sumcheck-1/2 transcript desync) and
    the Orion opening (commitment root, [u] combination, proximity rows,
    column indices, authentication paths). *)

val fri : unit -> Fuzz.target
(** Spartan over the FRI PCS. Structural mutators cover the same Spartan
    layer plus the FRI opening (layer roots, final constant, round
    polynomials, query positions, leaf values, path digests, and a path one
    digest short). *)

val all : unit -> Fuzz.target list
(** Both targets, Orion first. *)

val by_name : string -> Fuzz.target option
(** Look a target up by {!Fuzz.target.name} ("orion" or "fri"). *)
