(** Concrete circuit builder: the front end that turns programs into R1CS
    (step (1) of Fig. 2, "arithmetization").

    The builder is {e concrete}: every variable is allocated together with its
    value, so finalization yields both the instance and a satisfying
    assignment. This matches NoCap's system model, where the host CPU computes
    all wire values and ships them to the accelerator (Sec. II). *)

type t

type var
(** A wire. *)

type lc = (var * Zk_field.Gf.t) list
(** A linear combination of wires. *)

val create : unit -> t

val one : var
(** The constant-1 wire (io slot 0). *)

val input : t -> Zk_field.Gf.t -> var
(** Allocate a public input with the given value. *)

val witness : t -> Zk_field.Gf.t -> var
(** Allocate a private witness wire with the given value. *)

val value : t -> var -> Zk_field.Gf.t

val lc_var : var -> lc
val lc_const : Zk_field.Gf.t -> lc
val lc_scale : Zk_field.Gf.t -> lc -> lc
val lc_add : lc -> lc -> lc
val lc_value : t -> lc -> Zk_field.Gf.t

val constrain : t -> lc -> lc -> lc -> unit
(** [constrain t a b c] adds the constraint [<a,z> * <b,z> = <c,z>] as the
    next row: each term of [a], [b] and [c] is appended to that matrix's
    flat (row, column, coefficient) triplets, the column tagged witness or
    io until {!finalize} places the io half.
    @raise Invalid_argument if the current assignment violates it (catching
    circuit bugs at construction time). *)

val num_constraints : t -> int
val num_witness : t -> int

val finalize : t -> R1cs.instance * R1cs.assignment
(** Pad to the next valid power-of-two square instance and return it with its
    satisfying assignment. Each matrix is one {!Sparse.of_triplets} over
    the builder's triplets (rows in constraint order; repeated terms
    summed, cancelling ones dropped). *)
