(* Resource-leak guard for the suites that touch spill files and services:
   every wrapped case must leave the number of live spill files, open file
   descriptors and threads where it found them. The fd and thread halves
   are skipped where /proc/self/fd or /proc/self/task does not exist. A
   full major collection before the case runs the spill finalizers of
   earlier garbage, so only the case's own files are counted; none runs
   after it, so a case that leaves a file to the finalizer backstop fails.

   The domain pool is started before each count, so its persistent
   workers are in both (a case that resizes it with [Pool.with_domains]
   leaves it dropped, and the next pool job restarts it). A joined domain's
   thread can outlive [Domain.join] by a moment, so a thread count that is
   still high is re-read for up to a second before the case fails. *)

module Spill = Nocap_vec.Spill
module Pool = Nocap_parallel.Pool

let count dir =
  match Sys.readdir dir with
  | entries -> Some (Array.length entries)
  | exception Sys_error _ -> None

let open_fds () = count "/proc/self/fd"

let threads () =
  Pool.run ~grain:1 ~n:2 (fun _ _ -> ());
  count "/proc/self/task"

let settled_threads before =
  let rec go tries =
    match threads () with
    | Some t when Some t <> before && tries > 0 ->
      Unix.sleepf 0.01;
      go (tries - 1)
    | t -> t
  in
  go 100

let wrap ((name, speed, run) : unit Alcotest.test_case) : unit Alcotest.test_case =
  ( name,
    speed,
    fun () ->
      Gc.full_major ();
      let tasks = threads () in
      let files = Spill.live_files () and fds = open_fds () in
      run ();
      let files' = Spill.live_files () in
      if files' <> files then
        Alcotest.failf "%s: live spill files %d before the case, %d after" name files files';
      (match (fds, open_fds ()) with
      | Some a, Some b when a <> b ->
        Alcotest.failf "%s: open fds %d before the case, %d after" name a b
      | _ -> ());
      match (tasks, settled_threads tasks) with
      | Some a, Some b when a <> b ->
        Alcotest.failf "%s: threads %d before the case, %d after" name a b
      | _ -> () )
