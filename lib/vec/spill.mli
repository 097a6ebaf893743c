(** Spillable flat vectors: [Fv] blocks backed by RAM or a temp file.

    The streaming prover works over vectors that may not fit the configured
    memory budget ([Engine.Config.stream_budget_mb]). A [Spill.t] is the
    backing-store decision made explicit: [spill:false] wraps a plain
    {!Fv.t}; [spill:true] stores the elements in an unlinked temp file.
    Producers and consumers move data in [Fv] blocks through one block loop
    ({!walk}) sized by one rule ({!block_rows}), so the hot loops above
    this layer are identical for both backings.

    Layout contract: element [i] is file bytes [\[8i, 8i + 8)], the
    little-endian image of the int64 an [Fv.t] holds in RAM — the block's
    storage as it lies on every (little-endian) target the repo builds; the
    stub refuses to build on a big-endian host. Round trips are bit-exact,
    so backing choice can never change proof bytes.

    {b I/O model.} One positioned read or write per block
    ({!Nocap_native.Native.pread}/[pwrite]) straight between the [Fv]
    block and the file, runtime lock released; deliberately not [mmap]:
    mapped pages are resident pages, and the whole point of spilling is a
    peak-RSS bound the kernel can verify (VmHWM). A per-file mutex orders
    transfers against {!free}'s close; the intended pattern is
    single-submitter: domains compute into RAM blocks, one thread does the
    I/O.

    {b Temp-file hygiene.} Files are created by [Filename.temp_file] with a
    [.nocap-spill] suffix and unlinked immediately after opening where the
    OS allows, so even SIGKILL leaks no namespace entry. A registry plus an
    [at_exit] sweep removes any path that could not be unlinked eagerly;
    the first spilled [create] also installs SIGTERM/SIGINT handlers that
    run the same sweep and then chain to the previously installed handler
    (or re-deliver the default disposition), so killed service processes
    never leak spill bytes either. *)

module Gf = Zk_field.Gf

type t

val create : ?tag:string -> spill:bool -> int -> t
(** [create ~spill n] makes a length-[n] vector, zero-filled. [tag] names
    the temp file (debugging; default ["spill"]). *)

val of_fv : Fv.t -> t
(** Zero-copy RAM-backed wrap; the [Fv.t] is shared, not copied. *)

val length : t -> int

val is_spilled : t -> bool

val write : t -> pos:int -> Fv.t -> unit
(** Store [Fv.length src] elements at [pos]. [Invalid_argument] if the
    range leaves the vector or it was {!free}d. *)

val read : t -> pos:int -> Fv.t -> unit
(** Load [Fv.length dst] elements from [pos]; raises as {!write}. *)

val block_rows : budget:int option -> row_bytes:int -> int -> int
(** The block of every streamed loop: [block_rows ~budget ~row_bytes rows]
    is [rows] with no budget, and under a budget [b] the most rows whose
    [row_bytes] (what the loop stages per row) fit [b / 2], clamped to
    [\[1, rows\]]. Never below 1, a valid {!walk} block.
    @raise Invalid_argument if [row_bytes < 1]. *)

val walk :
  rows:int ->
  block:int ->
  ?read:(t * int * int) list ->
  ?write:(t * int * int) list ->
  (pos:int -> len:int -> Fv.t array -> Fv.t array -> unit) ->
  unit
(** The block loop of every streamed phase. [walk ~rows ~block ~read
    ~write f] covers rows [\[0, rows)] in blocks of at most [block] rows,
    in order, and calls [f ~pos ~len srcs dsts] once per block
    [\[pos, pos + len)]. An attachment [(v, off, width)] gives each row
    [width] elements of [v], so the block covers elements
    [\[off + pos * width, off + (pos + len) * width)]; [srcs] are the
    blocks of [read] and [dsts] those of [write], in list order.

    A RAM-backed vector's block is a view of its own storage (no copy). A
    file-backed one gets one staging buffer of [min block rows * width]
    elements for the whole walk: a read block is loaded before [f] runs,
    and a write block, whose contents [f] must set, is stored after it.
    The walk calls {!Nocap_parallel.Pool.Cancel.check} before each block.

    Every attachment's range is checked before any I/O. If anything raises
    (an invalid argument, [f], a cancellation, an I/O fault), every vector
    in [write] is {!free}d and the exception re-raised.
    @raise Invalid_argument if [rows < 0], [block < 1], a width is negative
    or an attachment's range leaves its vector. *)

val get : t -> int -> Gf.t
(** Point read. O(1) in RAM; one tiny pread when spilled — {!walk} over
    blocks for scans. *)

val as_fv : t -> Fv.t
(** The underlying [Fv.t] of a RAM-backed vector (shared, not copied).
    @raise Invalid_argument if spilled. *)

val to_fv : t -> Fv.t
(** Materialize the full contents into a fresh [Fv.t] (copies). *)

val free : t -> unit
(** Release the backing file (close fd, drop registry entry). Idempotent;
    a RAM-backed free is a no-op. Reads after [free] raise. Spilled
    vectors are also freed by a GC finalizer as a backstop, but provers
    free deterministically so fds don't accumulate until a major GC. *)

val spilled_bytes_total : unit -> int
(** Cumulative bytes ever written to spill files by this process (a
    monotonic counter benches report as "spill traffic"). *)

val live_files : unit -> int
(** Spill files currently open. *)

val reset_counters : unit -> unit
(** Zero {!spilled_bytes_total} (for per-section bench accounting);
    [live_files] is live state and is not affected. *)

val sweep_leftovers : unit -> unit
(** Best-effort removal of every registered leftover path. Runs via
    [at_exit] and from the SIGTERM/SIGINT handlers; safe to call from a
    signal handler — if the registry lock is contended the sweep is
    skipped rather than risking a concurrent-iteration crash or a
    self-deadlock. Normally a no-op — unlink-after-open leaves nothing
    behind on POSIX systems. *)

val install_signal_handlers : unit -> unit
(** Install the SIGTERM/SIGINT sweep-then-chain handlers now (idempotent).
    Called automatically by the first spilled {!create}; long-running
    services call it at startup so the guarantee holds before any spill
    exists. Handlers installed {e after} this call (e.g. a service's
    graceful-drain handler) take precedence and may chain back. *)

val set_io_fault_hook : (string -> unit) option -> unit
(** Fault-injection seam: the hook is called with ["read"] or ["write"]
    before every file-backed transfer, on the domain doing the I/O, and
    may raise (e.g. [Unix.Unix_error (EIO, _, _)]) to simulate disk
    failure — the file's mutex is released on the way out. [None]
    disarms. Testing only; never set in production paths. *)
