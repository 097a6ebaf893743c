(** Unboxed flat vectors of Goldilocks elements.

    A [Gf.t array] stores one boxed Int64 block per element, so every write
    in a hot loop allocates. [Fv.t] is a C-layout [Bigarray.Array1] of
    int64: elements are 8 contiguous bytes and — with the [@inline] Gf
    primitives — whole loop iterations run without touching the OCaml heap.

    Layout contract: an [Fv.t] always holds canonical Gf values (< p),
    bit-identical to [Gf.to_int64], so conversion to/from [Gf.t array] is a
    pure copy and array-backed oracles must agree element-for-element. *)

module Gf = Zk_field.Gf

type t = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> t
(** Contents uninitialized. *)

val length : t -> int

val unsafe_get : t -> int -> Gf.t
val unsafe_set : t -> int -> Gf.t -> unit
val get : t -> int -> Gf.t
val set : t -> int -> Gf.t -> unit

val fill : t -> Gf.t -> unit

val zero : t -> unit

val sub_view : t -> pos:int -> len:int -> t
(** Shares storage with the parent (no copy). *)

val blit : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit
val copy : t -> t

val of_array : Gf.t array -> t
val to_array : t -> Gf.t array

val write_array : Gf.t array -> src_pos:int -> t -> dst_pos:int -> len:int -> unit

val equal : t -> t -> bool

(** {1 Allocation-free elementwise kernels}

    Each checks lengths once, then runs the C kernel
    ({!Nocap_native.Native}). [dst] may alias an input (the kernels are
    elementwise). {!fold} and {!sum} are OCaml loops. *)

val add_into : dst:t -> t -> t -> unit
val sub_into : dst:t -> t -> t -> unit
val mul_into : dst:t -> t -> t -> unit

val scale_into : dst:t -> t -> Gf.t -> unit
(** [scale_into ~dst a c]: [dst.(i) <- c * a.(i)]. *)

val axpy_into : dst:t -> Gf.t -> t -> unit
(** [axpy_into ~dst c src]: [dst.(i) <- dst.(i) + c * src.(i)] — the inner
    loop of Orion's row combination. *)

val fold : ('a -> Gf.t -> 'a) -> 'a -> t -> 'a

val sum : t -> Gf.t
(** Closure-free [fold Gf.add Gf.zero]. *)
