(** Static soundness analysis of R1CS instances: does the public io pin down
    the witness, and is every constraint row doing real work?

    The analysis runs over the honest assignment in two stages
    (DESIGN.md Sec. 10):

    + {b Unit propagation}: the known set is seeded with the io half;
      any row whose residual is linear in exactly one unknown with a
      nonzero net coefficient pins that unknown. Builder-produced circuits
      are near-triangular in wire order, so this resolves most of the
      witness in one sweep.
    + {b Jacobian rank probe}: leftovers (typically bit wires, bilinear in
      their own booleanity rows) go to a sparse Gaussian elimination of the
      constraint Jacobian at the honest point, leading by largest column.
      Free columns are first-order degrees of freedom; each is reported only
      after its tangent nullspace vector has been re-verified against every
      leftover Jacobian row.

    {b Soundness caveats} (see DESIGN.md Sec. 10.2): the probe is local and
    first-order. It certifies that a flagged variable really can move (no
    false positives after verification, up to first order), but a clean
    probe does not rule out discrete ambiguity — a second satisfying witness
    far from the honest one. Degenerate points where the Jacobian loses rank
    without a true degree of freedom (e.g. a constraint [x*x = 0] at
    [x = 0]) are reported as under-constrained even though [x] is uniquely
    zero; such non-reduced constraints do not occur in the shipped gadget
    library.

    Rules (fixed names, see {!Diag.error_rule_codes} for exit codes):
    errors [unconstrained-variable], [under-constrained-variable],
    [unsatisfied-constraint], [trivial-constraint]; warnings
    [duplicate-constraint], [redundant-constraint], [unused-public-input],
    [constant-variable], [probe-overflow]. Variable rules anchor
    {!Diag.t.index} to the z-vector column, row rules to the constraint
    row. *)

type verdict = {
  diags : Diag.t list;
  num_rows : int;
  num_vars : int;  (** live witness + io columns *)
  propagated : int;  (** witness vars pinned by unit propagation *)
  probe_unknowns : int;  (** vars handed to the rank probe *)
  probe_free : int;  (** residual degrees of freedom the probe confirmed *)
  probe_ops : int;  (** field operations spent in the elimination *)
}

val analyze :
  ?max_reports:int ->
  ?probe_budget:int ->
  Zk_r1cs.R1cs.instance ->
  Zk_r1cs.R1cs.assignment ->
  verdict
(** Full analysis. [max_reports] (default 8) caps the concrete findings
    per rule — overflow collapses into one aggregate diagnostic with the
    same rule name. [probe_budget] (default 50,000,000) bounds the field
    operations the rank probe may spend before giving up with a
    [probe-overflow] warning. *)

val lint :
  ?max_reports:int ->
  ?probe_budget:int ->
  Zk_r1cs.R1cs.instance ->
  Zk_r1cs.R1cs.assignment ->
  Diag.t list
(** Just the diagnostics of {!analyze}. *)

val is_clean : verdict -> bool
(** No error-severity diagnostics (warnings are advisory). *)

val summary : verdict -> string
(** One human-readable line with the verdict counters. *)
