(* Resource-leak guard for the suites that touch spill files and services:
   every wrapped case must leave the number of live spill files and the
   number of open file descriptors where it found them. The fd half is
   skipped where /proc/self/fd does not exist. A full major collection
   before the case runs the spill finalizers of earlier garbage, so only
   the case's own files are counted; none runs after it, so a case that
   leaves a file to the finalizer backstop fails. *)

module Spill = Nocap_vec.Spill

let open_fds () =
  match Sys.readdir "/proc/self/fd" with
  | entries -> Some (Array.length entries)
  | exception Sys_error _ -> None

let wrap ((name, speed, run) : unit Alcotest.test_case) : unit Alcotest.test_case =
  ( name,
    speed,
    fun () ->
      Gc.full_major ();
      let files = Spill.live_files () and fds = open_fds () in
      run ();
      let files' = Spill.live_files () in
      if files' <> files then
        Alcotest.failf "%s: live spill files %d before the case, %d after" name files files';
      match (fds, open_fds ()) with
      | Some a, Some b when a <> b ->
        Alcotest.failf "%s: open fds %d before the case, %d after" name a b
      | _ -> () )
