(** Offline memory checking in-circuit (Blum et al.; the technique behind
    Spartan's SPARK sparse-polynomial commitment, whose 4-gamma multiset
    hashes the paper's 128-bit configuration instantiates — Sec. VII-A).

    Where {!Litmus_circuit} pays O(memory size) multiplexer constraints per
    access, offline checking pays O(1): every access contributes one tuple
    [(addr, value, timestamp)] to a read multiset and one to a write
    multiset, and a single product-accumulator equation
    [Init * WS = RS * Final] (checked under 4 independent random
    [(gamma, delta)] pairs) forces every read to return the value of the
    latest write. Timestamp ordering is enforced with width-checked
    comparisons.

    The random pairs must be sampled {e after} the trace is fixed; in the
    multi-phase instantiation they arrive as verifier challenges, which is
    how this module takes them (public inputs). *)

type op = Load of int | Store of int * int (** address / address, value *)

val reference : init:int array -> op list -> int list * int array
(** (values returned by the loads, final memory contents). *)

val build :
  Zk_r1cs.Builder.t ->
  challenges:(Zk_field.Gf.t * Zk_field.Gf.t) array ->
  init:int array ->
  op list ->
  Zk_r1cs.Builder.var list
(** Append the checked memory to a builder: the initial contents are public
    inputs, the access trace is witness data, and the returned wires are the
    loads' results. The challenge pairs become public inputs too.
    @raise Invalid_argument on an inconsistent trace (caught by the multiset
    equation at construction time) or empty memory. *)

val circuit :
  ?value_bits:int ->
  challenges:(Zk_field.Gf.t * Zk_field.Gf.t) array ->
  init:int array ->
  op list ->
  unit ->
  Zk_r1cs.R1cs.instance * Zk_r1cs.R1cs.assignment
(** A standalone instance around {!build}, revealing the load results. *)

val constraints_per_access : memory:int -> int
(** Upper bound on this scheme's constraints per access (independent of
    [memory]); compare {!multiplexer_constraints_per_access}. *)

val multiplexer_constraints_per_access : memory:int -> int
(** What the one-hot multiplexer approach of {!Litmus_circuit} pays. *)
