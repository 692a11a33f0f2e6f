(** Generation and propagation of query-relevant predicate (QRP)
    constraints (Sections 4.2–4.3; procedures [Gen_QRP_constraints] and
    [Gen_Prop_QRP_constraints] of Appendix C).

    A QRP constraint on [p] is satisfied by every [p] fact that is both
    derivable and *constraint-relevant* to the query predicate (Definitions
    2.5/2.6).  Generation seeds the query predicate with [true] and every
    other defined predicate with [false], then repeatedly infers literal
    constraints (Proposition 4.1): the constraint a body literal's facts
    must satisfy to contribute to a head fact satisfying the head's current
    approximation.  Theorem 4.2: on convergence the result is a QRP
    constraint; after minimum *predicate* constraints have been propagated
    (module {!Pred_constraints}), it is the *minimum* QRP constraint
    (Theorem 4.7).

    Propagation pushes each predicate's QRP constraint into its defining
    rules by a definition/unfold/fold sequence, renaming [p] to [p'] as in
    the paper's Example 4.3 ([flight'], …). *)

open Cql_constr
open Cql_datalog

type result = Fixpoint.result = {
  constraints : (string * Cset.t) list;  (** per derived predicate *)
  iterations : int;
  converged : bool;  (** false when the iteration budget was exhausted *)
}

val find : result -> string -> Cset.t
(** The constraint for a predicate ([true] when absent). *)

val gen : ?max_iters:int -> Program.t -> result
(** [Gen_QRP_constraints] through {!Fixpoint.run}: each step infers the
    literal constraint of every body literal (Proposition 4.1: the
    projection of the head constraint, converted by PTOL, and the rule's
    constraints onto the literal's variables, converted by LTOP).  The
    program must have a query predicate.  Default [max_iters] is 50.
    @raise Invalid_argument when no query predicate is set. *)

val gen_syntactic : ?max_iters:int -> Program.t -> result
(** A deliberately weakened variant that treats constraints "as any other
    literal" the way Balbin et al.'s C transformation does (Section 6.1):
    the literal constraint keeps only the rule's constraint atoms whose
    variables all occur in the literal, with no semantic projection.  Used
    as the Figure 1 baseline; cannot derive [Y <= 4] in Example 4.1. *)

val primed_name : string -> string
(** Primed name of a predicate; adorned names keep the adornment parseable
    ([flight_bbff] primes to [flight'_bbff]). *)

val propagate : result -> Program.t -> Program.t
(** [Gen_Prop_QRP_constraints]: for each derived non-query predicate whose
    QRP constraint is neither [true] nor [false], perform the
    definition/unfold/fold sequence, then delete rules unreachable from the
    query predicate.  A propagated predicate [p] is renamed [p'] (see
    {!primed_name}). *)
