(** Explicit engine context for the prover stack.

    An [Engine.t] carries the two runtime policies a prove/verify entry
    point takes from its caller: the prover memory budget
    ({!stream_budget_bytes}, read from a {!Config.t}) and the GC tuning
    ({!tune_gc}). It is created once (usually by the driver) and threaded
    down through Spartan, the PCS backends and zkdb. Call sites that pass
    nothing get {!default}, built from the environment, so the context is
    opt-in.

    What an engine does not carry, and why: every kernel runs on the one
    process-wide {!Nocap_parallel.Pool}, whose size only
    [Pool.with_domains] and the [NOCAP_DOMAINS] baseline set (and which
    never changes proof bytes); zk masking randomness comes from the
    entry point's own [?rng] or a fixed per-entry-point seed; and the
    prover's operation counts come back in its result
    ([Spartan.prover_stats]). *)

module Config : sig
  type t = { domains : int option; stream_budget_mb : int option }

  val default : t
  (** All knobs unset. *)

  val parse : lookup:(string -> string option) -> (t, string) result
  (** Parse the configuration from a key-value source ([lookup] is
      [Sys.getenv_opt] in production, an assoc list in tests). Recognized
      keys: [NOCAP_DOMAINS] (default-pool size) and
      [NOCAP_STREAM_BUDGET_MB] (prover memory budget in MiB; setting it
      makes the prover's blocks budget-sized and spills them to temp
      files, see {!stream_budget_bytes}). A key that is set but malformed
      is an [Error] — rejected loudly, never silently defaulted. All knobs are validated
      even after one fails: the [Error] aggregates every malformed
      variable (["; "]-separated, in knob order), so a service operator
      sees the complete misconfiguration in a single startup report. *)
end

type t

val create : ?config:Config.t -> ?stream_budget_bytes:int -> unit -> t
(** All fields optional: [create ()] is a fully default engine (no budget,
    16 MiB minor heap under {!tune_gc}). It reads no environment: the
    {!Config} knobs reach an engine only through {!default} (or an
    explicit [config]). [perfbench/prover_bench.ml] builds its engine
    with [create], so they have no effect on the end-to-end benchmark.
    [stream_budget_bytes] is the byte-granular form of the
    [NOCAP_STREAM_BUDGET_MB] knob (it wins over the config when both are
    set) so tests can force spills on tiny circuits. It sizes the one
    prover path's blocks; it never selects a different prover.
    @raise Invalid_argument if [stream_budget_bytes <= 0]. *)

val default : unit -> t
(** The shared default engine, built on first use from {!Config.parse}
    over the process environment (the only *validating* [Sys.getenv] site
    in the library tree). Its [domains] knob is applied as the pool's
    baseline size (see {!Nocap_parallel.Pool.set_baseline_domains};
    [Pool.with_domains] still takes precedence).
    @raise Invalid_argument on a malformed value. *)

val resolve : t option -> t
(** [resolve (Some e)] is [e]; [resolve None] is [default ()] — the one-line
    prologue of every [?engine] entry point. *)

val stream_budget_bytes : t -> int option
(** The effective prover memory budget: the explicit [create] argument if
    any, else [config.stream_budget_mb] scaled to bytes, else [None].
    There is one prover path, whose streamed loops walk [Spill.t]
    vectors in blocks ([Nocap_vec.Spill.walk]): [None] runs each as one
    RAM-backed block; [Some b] sizes every block to stage at most [b / 2]
    ([Nocap_vec.Spill.block_rows]) and backs the large vectors with spill
    files. Proof bytes are the same either
    way. *)

val tune_gc : t -> unit
(** Apply the GC policy to the process: a 16 MiB minor heap and
    [space_overhead] 200 — the tuning the benchmarks always ran with.
    Deliberately explicit: library entry points never mutate
    process-global GC state on their own. *)
