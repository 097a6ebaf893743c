module Gf = Zk_field.Gf
module Native = Nocap_native.Native

(* Registry of spill files that still have a visible path (unlink-after-open
   failed, e.g. an OS without POSIX unlink semantics on open files). The
   at_exit sweep removes whatever is left; normally it is empty. *)
let leftover_paths : (int, string) Hashtbl.t = Hashtbl.create 8
let registry_mutex = Mutex.create ()
let next_id = ref 0
let live_files_count = ref 0
let spilled_total = Atomic.make 0

(* Best-effort removal of every leftover path. Callable from at_exit and
   from signal handlers: a handler can interrupt a thread that already
   holds [registry_mutex], so we only try_lock — and when that fails we
   skip the sweep entirely rather than iterate a Hashtbl another domain
   is mutating (OCaml Hashtbl is not safe under concurrent mutation; an
   unlocked iteration can raise or spin, not just race benignly). The
   table is normally empty anyway: unlink-after-open leaves nothing to
   sweep, and the mutex is only ever held for a few instructions. *)
let sweep_leftovers () =
  if Mutex.try_lock registry_mutex then begin
    Hashtbl.iter (fun _ path -> try Sys.remove path with Sys_error _ -> ()) leftover_paths;
    Hashtbl.reset leftover_paths;
    Mutex.unlock registry_mutex
  end

let () = at_exit sweep_leftovers

(* SIGTERM/SIGINT also sweep, then chain to whatever handler was installed
   before us — so a killed service process never leaks *.nocap-spill bytes
   even though at_exit does not run on fatal signals. Chaining to
   Signal_default restores the default disposition and re-delivers, so the
   exit status still says "killed by signal". *)
let signal_handlers_installed = ref false

let install_signal_handlers () =
  if not !signal_handlers_installed then begin
    signal_handlers_installed := true;
    List.iter
      (fun signo ->
        let prev = ref Sys.Signal_default in
        let handler s =
          sweep_leftovers ();
          match !prev with
          | Sys.Signal_handle f -> f s
          | Sys.Signal_ignore -> ()
          | Sys.Signal_default ->
            (try Sys.set_signal signo Sys.Signal_default
             with Invalid_argument _ | Sys_error _ -> ());
            (try Unix.kill (Unix.getpid ()) signo
             with Unix.Unix_error _ -> exit 1)
        in
        try prev := Sys.signal signo (Sys.Signal_handle handler)
        with Invalid_argument _ | Sys_error _ -> ())
      [ Sys.sigterm; Sys.sigint ]
  end

(* Fault-injection seam for the runtime-faults harness: called (with "read"
   or "write") before every file-backed I/O, from the domain performing the
   I/O. A hook simulates disk failure by raising, e.g.
   [Unix.Unix_error (EIO, ...)]; the exception propagates to the caller
   with the staging mutex released. Not for production use. *)
let io_fault_hook : (string -> unit) option ref = ref None
let set_io_fault_hook h = io_fault_hook := h

let io_fault_point op =
  match !io_fault_hook with Some h -> h op | None -> ()

type file = {
  id : int;
  fd : Unix.file_descr;
  io : Mutex.t;
  mutable freed : bool;
}

type backing = Ram of Fv.t | File of file

type t = { len : int; backing : backing }

let length t = t.len

let is_spilled t = match t.backing with Ram _ -> false | File _ -> true

let free_file f =
  Mutex.protect f.io @@ fun () ->
  if not f.freed then begin
    f.freed <- true;
    (try Unix.close f.fd with Unix.Unix_error _ -> ());
    Mutex.lock registry_mutex;
    (match Hashtbl.find_opt leftover_paths f.id with
    | Some path ->
      (try Sys.remove path with Sys_error _ -> ());
      Hashtbl.remove leftover_paths f.id
    | None -> ());
    decr live_files_count;
    Mutex.unlock registry_mutex
  end

let free t = match t.backing with Ram _ -> () | File f -> free_file f

let check_range t ~pos ~n op =
  if pos < 0 || n < 0 || pos + n > t.len then
    invalid_arg
      (Printf.sprintf "Spill.%s: range [%d, %d) outside [0, %d)" op pos (pos + n) t.len)

(* One positioned transfer of [blk] at element [pos], under the file's
   mutex so it cannot race [free]'s close. *)
let transfer f op io ~pos blk =
  Mutex.protect f.io @@ fun () ->
  if f.freed then invalid_arg ("Spill." ^ op ^ ": vector already freed");
  io_fault_point op;
  io f.fd blk (pos * 8)

let write t ~pos src =
  let n = Fv.length src in
  check_range t ~pos ~n "write";
  match t.backing with
  | Ram fv -> Fv.blit ~src ~src_pos:0 ~dst:fv ~dst_pos:pos ~len:n
  | File f ->
    transfer f "write" Native.pwrite ~pos src;
    ignore (Atomic.fetch_and_add spilled_total (n * 8))

let read t ~pos dst =
  let n = Fv.length dst in
  check_range t ~pos ~n "read";
  match t.backing with
  | Ram fv -> Fv.blit ~src:fv ~src_pos:pos ~dst ~dst_pos:0 ~len:n
  | File f -> transfer f "read" Native.pread ~pos dst

let block_rows ~budget ~row_bytes rows =
  if row_bytes < 1 then invalid_arg "Spill.block_rows: row_bytes must be positive";
  match budget with
  | None -> max 1 rows
  | Some b -> max 1 (min rows (b / 2 / row_bytes))

(* A block of attachment [(v, off, width)]: rows [pos, pos + len) are
   elements [off + pos * width, off + (pos + len) * width). A RAM-backed
   vector lends its own storage; a file-backed one the front of [stage]. *)
let block_of (v, off, width) stage ~pos ~len =
  match v.backing with
  | Ram fv -> Fv.sub_view fv ~pos:(off + (pos * width)) ~len:(len * width)
  | File _ -> Fv.sub_view stage ~pos:0 ~len:(len * width)

let walk ~rows ~block ?read:(reads = []) ?write:(writes = []) f =
  try
    if rows < 0 || block < 1 then
      invalid_arg (Printf.sprintf "Spill.walk: rows %d, block %d" rows block);
    List.iter
      (fun (v, off, width) ->
        if width < 0 then invalid_arg "Spill.walk: negative width";
        check_range v ~pos:off ~n:(rows * width) "walk")
      (reads @ writes);
    let staged =
      List.map (fun ((v, _, width) as a) ->
          (a, Fv.create (if is_spilled v then min block rows * width else 0)))
    in
    let reads = staged reads and writes = staged writes in
    let pos = ref 0 in
    while !pos < rows do
      Nocap_parallel.Pool.Cancel.check ();
      let p = !pos in
      let len = min block (rows - p) in
      let blocks = List.map (fun (a, stage) -> block_of a stage ~pos:p ~len) in
      let srcs = blocks reads and dsts = blocks writes in
      let transfer io atts blks =
        List.iter2
          (fun ((v, off, width), _) blk -> if is_spilled v then io v ~pos:(off + (p * width)) blk)
          atts blks
      in
      transfer read reads srcs;
      f ~pos:p ~len (Array.of_list srcs) (Array.of_list dsts);
      transfer write writes dsts;
      pos := p + len
    done
  with e ->
    List.iter (fun (v, _, _) -> free v) writes;
    raise e

let get t i =
  match t.backing with
  | Ram fv -> Fv.get fv i
  | File _ ->
    let one = Fv.create 1 in
    read t ~pos:i one;
    Fv.unsafe_get one 0

let as_fv t =
  match t.backing with
  | Ram fv -> fv
  | File _ -> invalid_arg "Spill.as_fv: vector is file-spilled"

let to_fv t =
  let out = Fv.create t.len in
  read t ~pos:0 out;
  out

let of_fv fv = { len = Fv.length fv; backing = Ram fv }

let create ?(tag = "spill") ~spill n =
  if n < 0 then invalid_arg "Spill.create: negative length";
  if not spill then begin
    let fv = Fv.create n in
    Fv.zero fv;
    of_fv fv
  end
  else begin
    install_signal_handlers ();
    let path = Filename.temp_file ("nocap-" ^ tag ^ "-") ".nocap-spill" in
    let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0o600 in
    Mutex.lock registry_mutex;
    let id = !next_id in
    incr next_id;
    incr live_files_count;
    Mutex.unlock registry_mutex;
    (* Unlink-after-open: the data stays reachable through the fd but the
       path is gone, so no exit mode can leak a namespace entry. If the OS
       refuses, remember the path for [free] / the at_exit sweep. *)
    (match try Sys.remove path; true with Sys_error _ -> false with
    | true -> ()
    | false ->
      Mutex.lock registry_mutex;
      Hashtbl.replace leftover_paths id path;
      Mutex.unlock registry_mutex);
    Unix.ftruncate fd (n * 8);
    let f = { id; fd; io = Mutex.create (); freed = false } in
    let t = { len = n; backing = File f } in
    (* Backstop only — provers free deterministically. *)
    Gc.finalise (fun t -> free t) t;
    t
  end

let spilled_bytes_total () = Atomic.get spilled_total
let live_files () = !live_files_count
let reset_counters () = Atomic.set spilled_total 0
