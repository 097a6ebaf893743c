(** Domain pool for the prover hot paths.

    There is one pool per process: persistent worker domains, sized by
    {!default_domains}, execute chunked index ranges on behalf of a
    submitting domain, which also participates. Every entry point below
    submits to it; the pool is created on first use, resized only through
    {!with_domains} and {!set_baseline_domains}, and joined at exit. It is
    the software analogue of NoCap's one fixed set of vector lanes: every
    converted kernel (Merkle hashing, row-wise encoding, sumcheck rounds,
    Pippenger windows) is an embarrassingly parallel loop over disjoint
    output slots.

    {b Scheduling.} A job over [\[0, n)] has one atomic claim cursor.
    Every participant, the submitter included, takes the next [grain]
    indices with one fetch-and-add until the cursor passes [n], so a fast
    participant simply claims more chunks than a slow one.
    The submit hot path is a single atomic epoch bump — parked workers are
    woken only when the parked count says someone is actually asleep, and
    workers spin ({!Domain.cpu_relax}) for 20µs (0 on a single-core host)
    before parking, so back-to-back kernel launches never touch a mutex.
    See DESIGN.md Sec. 12.

    {b Grain.} Every entry point takes its per-claim chunk size, calibrated
    so one claim amortizes ≥ ~50µs of work ({!grain_of_ns} maps a per-item
    cost estimate to a grain). Inputs below the crossover
    ([n < 2 * grain]) run serially in the caller — dispatch is never paid
    where it cannot win.

    {b Determinism contract.} Results are byte-identical for every domain
    count, including 1, because (a) all parallelised bodies write disjoint
    array slots or combine exact field/group elements, and (b)
    {!fold_chunks} fixes its chunk boundaries and combine order as a pure
    function of [n] and [chunk] — never of the pool size, the grain, or of
    scheduling. The serial fallback (pool of size 1, [n] below the
    crossover, or a nested call from inside a worker) runs the same chunk
    decomposition in order. *)

(** Cooperative cancellation tokens, checked at kernel chunk boundaries.

    A controller (service watchdog, signal handler, test harness) creates a
    token, the proving code runs under {!Cancel.with_token}, and every pool
    chunk — plus explicit {!Cancel.check} calls in streaming loops —
    re-raises {!Cancel.Cancelled} once the token trips. The token is
    ambient: {!with_token} installs it in domain-local storage, submission
    captures it into the job, and each worker chunk re-installs it, so
    nested kernels and the serial fallback observe the same token without
    threading it through every API. Cancellation is prompt at grain
    granularity — a claimed chunk finishes, the rest of the job fast-drains
    through the pool's failure path and the pool stays reusable. *)
module Cancel : sig
  type token

  exception Cancelled of string
  (** Raised (carrying the cancel reason) in the domain that owns the
      computation; workers never leak it. *)

  val create : unit -> token

  val cancel : ?reason:string -> token -> unit
  (** Trip the token. Idempotent; the first caller's [reason] (default
      ["cancelled"]) is the one reported. Safe from any domain and from
      signal handlers. *)

  val reason : token -> string

  val with_token : token -> (unit -> 'a) -> 'a
  (** Run a thunk with the token installed as the current domain's ambient
      token (restored afterwards, exceptions included). *)

  val current : unit -> token option
  (** The ambient token of the calling domain, if any. *)

  val check : unit -> unit
  (** Raise [Cancelled] iff the ambient token is tripped; a cheap no-op
      otherwise. Streaming kernels call this at block boundaries. *)
end

val default_domains : unit -> int
(** Size of the process pool: the size forced by {!with_domains} if one is
    active, else the baseline from {!set_baseline_domains}, else
    [Domain.recommended_domain_count ()], clamped to [\[1, 128\]]. This
    module reads no environment variables itself; the engine layer
    ([Zk_pcs.Engine.Config]) parses [NOCAP_DOMAINS] and installs it as the
    baseline. *)

val set_baseline_domains : int -> unit
(** Install a low-priority default size, used only when no forced size is
    active. Tears down an unforced live pool so the new size takes
    effect on next use; a forced pool (inside {!with_domains}) is left
    running and picks the baseline up once the force is released. *)

val with_domains : int -> (unit -> 'a) -> 'a
(** [with_domains k f] runs [f] with the pool resized to [k] (clamped to
    [\[1, 128\]]), restoring the previous size afterwards (even on
    exceptions). Benchmarks and tests sweep domain counts with it. *)

val grain_of_ns : int -> int
(** [grain_of_ns cost] is the grain that makes one claimed chunk amortize
    ~50µs of work for a body costing [cost] nanoseconds per index:
    [max 1 (50_000 / max 1 cost)]. Kernels pass measured-once cost
    constants; see DESIGN.md Sec. 12 for the calibration table. *)

val run : grain:int -> n:int -> (int -> int -> unit) -> unit
(** [run ~grain ~n body] executes [body lo hi] over half-open chunks
    covering [\[0, n)]. Chunks of at most [grain] indices are claimed
    dynamically by whichever participant is free, so [body] must only
    write state disjoint per index (or commute exactly).
    [n < 2 * grain] short-circuits to [body 0 n] in the calling domain
    (in slices of 4096 while a {!Cancel} token is installed, so the token
    is still checked). The first exception raised by any
    participant is re-raised in the submitting domain after all chunks
    complete. Nested calls from inside a worker run serially. *)

val parallel_for : grain:int -> n:int -> (int -> unit) -> unit
(** Per-index variant of {!run}. *)

val parallel_init : grain:int -> int -> (int -> 'a) -> 'a array
(** Parallel [Array.init]. [f 0] runs first in the submitting domain (to
    seed the result array), the rest in parallel. *)

val fold_chunks :
  chunk:int ->
  grain:int ->
  n:int ->
  init:'acc ->
  body:(int -> int -> 'part) ->
  combine:('acc -> 'part -> 'acc) ->
  unit ->
  'acc
(** Chunked parallel reduction: [body lo hi] produces a partial result per
    chunk; partials are combined {e in chunk order} starting from [init].
    Chunk boundaries depend only on [n] and [chunk], so the reduction tree
    is identical for every domain count — this is what makes reductions
    over inexact operations deterministic too. [grain] is still in
    {e items}: participants claim [max 1 (grain / chunk)] chunks at a
    time, and [n < 2 * grain] falls back to a serial loop over the same
    chunk sequence. *)
