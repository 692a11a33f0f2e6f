(** The seed evaluator: an independent, deliberately naive implementation of
    the paper's rule application (Section 2), kept as the reference the
    production engine ({!Cql_eval.Engine}) is cross-checked against.

    Facts live in per-predicate lists tagged with the iteration that derived
    them; a body literal reads the old / delta / full window of those tags
    by a linear scan.  Bodies are joined in program order with
    {!Cql_datalog.Subst.unify_under}, constraints are conjoined and the head
    is projected by {!Cql_eval.Compile.derive_head_env} with a substitution
    lookup.  New facts back-subsume the stored facts they cover; facts a
    stored fact subsumes are dropped on arrival.  Nothing here touches the
    relation store, the join planner or the compiled executor, so a bug in
    any of them shows up as a disagreement.

    Semantics match {!Cql_eval.Engine.run} / {!Cql_eval.Engine.run_naive}:
    iteration 0 loads the EDB and fires fact rules, every produced
    candidate (subsumed or not) counts as a derivation, [max_derivations]
    stops the run when that many derivations were merged, and
    [max_iterations] caps the number of delta iterations.  Within an
    iteration derivations come in program order rather than the planner's
    order, so fact sets, iteration and derivation counts agree with the
    engine at a fixpoint or an iteration cap; the facts of a run truncated
    mid-iteration by [max_derivations] may differ. *)

open Cql_datalog

type stats = {
  iterations : int;  (** number of the last iteration executed *)
  derivations : int;  (** successful rule applications, incl. subsumed *)
  facts_added : int;  (** facts ever stored, EDB included *)
  reached_fixpoint : bool;  (** false when a budget stopped the run *)
}

type result

val run :
  ?max_iterations:int ->
  ?max_derivations:int ->
  Program.t ->
  edb:Cql_eval.Fact.t list ->
  result
(** Semi-naive evaluation: each derivation uses at least one fact of the
    previous iteration's delta. *)

val run_naive :
  ?max_iterations:int ->
  ?max_derivations:int ->
  Program.t ->
  edb:Cql_eval.Fact.t list ->
  result
(** Naive evaluation: every rule against the full database each iteration. *)

val stats : result -> stats

val facts_of : result -> string -> Cql_eval.Fact.t list
(** Live facts of a predicate, oldest first. *)

val all_facts : result -> (string * Cql_eval.Fact.t list) list

val answers : result -> Program.t -> Cql_eval.Fact.t list
(** Facts of the program's query predicate (empty when no query is set). *)
