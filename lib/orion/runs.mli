(** Variable-length runs concatenated in one flat buffer (an Orion
    opening's column values and paths, a FRI query's layers and paths),
    and the subsets of openings or queries a batched check goes on with.
    Shared by the Orion and FRI verifiers. *)

val sum : int array -> int
(** Total length of the runs. *)

val offsets : int array -> int array
(** Start of each run: [offsets lens.(k)] is the sum of [lens.(0 .. k-1)]. *)

val select : int -> (int -> bool) -> int array
(** The positions in [\[0, n)] that satisfy [p], in order. *)
