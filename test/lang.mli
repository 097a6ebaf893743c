(** A small expression language compiling to R1CS — the circuit front end of
    Fig. 2's step (1), so applications do not have to hand-place constraints.

    Programs are statement lists over expressions; named values are either
    public [input]s or secret witnesses. Booleans are field elements
    constrained to [{0,1}]; comparisons take an explicit bit width, like the
    underlying {!Zk_r1cs.Gadgets}. [interpret] is an independent reference
    semantics the tests check the compiled circuits against. *)

type expr =
  | Const of int64
  | Var of string (** a [let]-bound name, an input, or a secret *)
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Eq of expr * expr (** Boolean result *)
  | Lt of int * expr * expr (** width, then operands; Boolean result *)
  | And of expr * expr
  | Or of expr * expr
  | Not of expr
  | If of expr * expr * expr (** condition must be Boolean *)
  | Let of string * expr * expr

type stmt =
  | Assert_eq of expr * expr (** constrain equality *)
  | Assert_bool of expr
  | Reveal of string * expr (** expose a value as a public output *)

type program = stmt list

type env = {
  inputs : (string * int64) list; (** public *)
  secrets : (string * int64) list;
}

val interpret : env -> expr -> Zk_field.Gf.t
(** Reference semantics (no circuit).
    @raise Invalid_argument on unbound names, non-Boolean conditions, or a
    width that the operands exceed. *)

val interpret_program : env -> program -> (string * Zk_field.Gf.t) list
(** The revealed outputs. @raise Invalid_argument if an assertion fails. *)

val compile :
  env -> program -> Zk_r1cs.R1cs.instance * Zk_r1cs.R1cs.assignment * (string * Zk_field.Gf.t) list
(** Build the circuit: allocates all inputs (in order), runs the statements,
    and returns the instance, a satisfying assignment, and the revealed
    outputs (which become public io after the inputs). Raises like
    {!interpret} on semantic errors; the resulting instance always satisfies
    [Zk_r1cs.R1cs.satisfied]. *)
