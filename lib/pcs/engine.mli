(** Explicit engine context for the prover stack.

    An [Engine.t] bundles every runtime policy a prove/verify entry point
    used to pick up ambiently — domain pool, RNG, stat/trace sink, GC
    tuning — into one value that is created once (usually by the
    driver) and threaded down through Spartan, the PCS backends, sumcheck,
    and zkdb. Call sites that pass nothing get {!default}, which behaves
    exactly like the pre-engine code, so the context is opt-in.

    {b Ownership rules.} The engine does not own its pool: [pool = None]
    means "use {!Nocap_parallel.Pool.default} at the moment of use", which
    keeps engines valid across [Pool.with_domains] sweeps. An explicit pool
    is owned by whoever created it and must outlive the engine's use. The
    pool choice never affects proof bytes (the parallel layer's determinism
    contract), and the RNG only feeds zk masking, so two engines differing
    only in [pool]/[trace] produce identical proofs. *)

module Config : sig
  type t = {
    domains : int option;
    gc_minor_mb : int option;
    spin_us : int option;
    native : Nocap_native.Native.mode option;
    stream_budget_mb : int option;
  }

  val default : t
  (** All knobs unset. *)

  val parse : lookup:(string -> string option) -> (t, string) result
  (** Parse the configuration from a key-value source ([lookup] is
      [Sys.getenv_opt] in production, an assoc list in tests). Recognized
      keys: [NOCAP_DOMAINS] (default-pool size), [NOCAP_GC_MINOR_MB]
      (minor heap size for {!tune_gc}), [NOCAP_SPIN_US] (idle-worker
      spin budget before parking, see
      {!Nocap_parallel.Pool.set_spin_us}; 0 is legal and means park
      immediately), [NOCAP_NATIVE] (kernel layer mode, see
      {!Nocap_native.Native.parse_mode}: [0|off] or [1|on|auto|simd];
      anything else, [scalar] included, is an error) and [NOCAP_STREAM_BUDGET_MB] (prover memory
      budget in MiB; setting it makes the prover's blocks budget-sized
      and spills them to temp files, see {!stream_budget_bytes}). A key that is set but malformed is an [Error] —
      rejected loudly, never silently defaulted. All knobs are validated
      even after one fails: the [Error] aggregates every malformed
      variable (["; "]-separated, in knob order), so a service operator
      sees the complete misconfiguration in a single startup report. *)

  val of_env : unit -> t
  (** [parse] over the process environment; the only *validating*
      [Sys.getenv] site in the library tree ([Nocap_native.Native.mode]
      also reads NOCAP_NATIVE leniently, because the kernel libraries sit
      below this module — same grammar, malformed falls back to default
      there and errors here).
      @raise Invalid_argument on a malformed value. *)
end

type t

val create :
  ?pool:Nocap_parallel.Pool.t ->
  ?rng:Zk_util.Rng.t ->
  ?trace:(string -> float -> unit) ->
  ?config:Config.t ->
  ?stream_budget_bytes:int ->
  unit ->
  t
(** All fields optional: [create ()] is a fully default engine (lazy
    default pool, per-call RNG seeds, no trace sink). It reads no
    environment: [NOCAP_DOMAINS], [NOCAP_GC_MINOR_MB] and the other
    {!Config} knobs reach an engine only through {!default} (or an
    explicit [config]). [perfbench/prover_bench.ml] builds its engine with
    [create], so those two knobs have no effect on the end-to-end
    benchmark.
    [stream_budget_bytes] is the byte-granular form of the
    [NOCAP_STREAM_BUDGET_MB] knob (it wins over the config when both are
    set) so tests can force spills on tiny circuits. It sizes the one
    prover path's blocks; it never selects a different prover.
    @raise Invalid_argument if [stream_budget_bytes <= 0]. *)

val default : unit -> t
(** The shared default engine, built on first use from {!Config.of_env}.
    Its [domains] knob is applied as the default pool's baseline size (see
    {!Nocap_parallel.Pool.set_baseline_domains}) — explicit pools and
    [Pool.with_domains]/[set_default_domains] still take precedence — and
    its [native] knob via {!Nocap_native.Native.set_mode}. *)

val reset_default : unit -> unit
(** Drop the cached default engine so the next {!default} re-reads the
    environment. For tests. *)

val resolve : t option -> t
(** [resolve (Some e)] is [e]; [resolve None] is [default ()] — the one-line
    prologue of every [?engine] entry point. *)

val pool : t -> Nocap_parallel.Pool.t option
(** The engine's pool, or [None] for "default pool at use time". Designed
    to forward directly: [Pool.run ?pool:(Engine.pool e) ...]. *)

val config : t -> Config.t

val stream_budget_bytes : t -> int option
(** The effective prover memory budget: the explicit [create] argument if
    any, else [config.stream_budget_mb] scaled to bytes, else [None].
    There is one prover path, which works in blocks over [Spill.t]
    vectors: [None] runs it as one RAM-backed block per phase; [Some b]
    makes the blocks [b]-sized and backs the large vectors with spill
    files. Proof bytes are the same either way. *)

val rng : seed:int64 -> ?rng:Zk_util.Rng.t -> t -> Zk_util.Rng.t
(** RNG precedence for an entry point: explicit argument, else the
    engine's, else a fresh [Rng.create seed] (the historical per-call
    default, so default-engine proofs are bit-stable). *)

val emit : t -> string -> float -> unit
(** Send one named measurement to the trace sink, if any. *)

val tune_gc : t -> unit
(** Apply the engine's GC policy to the process: minor heap sized from
    [config.gc_minor_mb] (default 16 MiB) and [space_overhead] 200 — the
    tuning the benchmarks always ran with. Deliberately explicit: library
    entry points never mutate process-global GC state on their own. *)
