(** Base-2 logarithms of sizes: the exact form for lengths that must be
    powers of two, and the floor and ceiling forms for padding and window
    choices. *)

val log2_exact : string -> int -> int
(** [log2_exact who n] is [k] with [n = 2^k].
    @raise Invalid_argument ["<who>: size must be a power of two"] unless
    [n] is a positive power of two. *)

val log2_floor : int -> int
(** The largest [k] with [2^k <= n]; [0] for [n <= 1]. *)

val log2_ceil : int -> int
(** The smallest [k] with [2^k >= n]; [0] for [n <= 1]. [1 lsl log2_ceil n]
    is the next power of two. *)
