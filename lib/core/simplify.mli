(** Post-transformation program cleanup.

    The propagation procedures produce correct but sometimes redundant
    programs: constraint parts with implied atoms, rules whose constraints
    are unsatisfiable, duplicate rules from overlapping disjuncts, and rules
    subsumed by more general ones.  This pass removes all four without
    changing the program's meaning. *)

open Cql_datalog

val rule : Rule.t -> Rule.t option
(** Simplify the constraint part; [None] when it is unsatisfiable (the rule
    can never fire). *)

val match_literal :
  Term.t Cql_constr.Var.Map.t -> Literal.t -> Literal.t -> Term.t Cql_constr.Var.Map.t option
(** [match_literal m pat tgt]: extend the bindings [m] so that [pat]
    becomes [tgt] — one-way matching, only [pat]'s variables bind (a bound
    variable must meet the same term again); [None] when the predicates,
    the arities or a constant differ. *)

val rule_subsumed_by : general:Rule.t -> Rule.t -> bool
(** [rule_subsumed_by ~general r]: every fact [r] derives, [general]
    derives too — same head predicate, an instance of [general]'s body
    literals occurs among [r]'s body literals, and [r]'s constraints imply
    the corresponding instance of [general]'s.  (Sound syntactic check, not
    complete.) *)

val program : Program.t -> Program.t
(** Simplify every rule, drop never-firing and duplicate rules, drop rules
    subsumed by another rule, and restrict to the predicates reachable from
    the query (when one is set). *)
