(** Bottom-up fixpoint evaluation of CQL programs (Section 2).

    The engine implements rule application over constraint facts exactly as
    the paper describes: choose a fact for each body literal, conjoin the
    facts' constraints with the rule's constraints, check satisfiability,
    and eliminate the non-head variables by projection.  Newly derived facts
    subsumed by known facts are discarded.

    Evaluation is semi-naive: each derivation uses at least one fact from
    the previous iteration's delta, giving the iteration-by-iteration
    behaviour of the paper's Tables 1 and 2.  One round loop and one
    derivation budget serve both one-shot runs ({!run}) and live views
    ({!materialize}, {!insert}, {!retract}); each keeps its own merge.
    Budgets allow safely running the *non-terminating* evaluations the
    paper exhibits (Table 1).

    Facts live in the indexed relation store ({!Cql_store.Store}): hash
    indexes on the argument columns each probe binds, old/delta/full
    partitions for semi-naive evaluation, and pattern-bucketed subsumption
    checks.  Rule bodies are reordered once per rule by the join planner's
    bound-ness heuristic ({!Cql_store.Planner}) and each (rule, pivot) plan
    is compiled once into a register-frame program ({!Compile}), the one
    rule executor.  The seed list-based evaluator, semi-naive and naive,
    lives on outside the engine as [Cql_gen.Reference], the cross-check of
    the fuzz harness and the tests.

    {b Concurrency.}  One evaluation runs on the calling domain from start
    to finish; its store, register frames and budgets belong to that run
    alone.  Independent evaluations may run on different domains at once
    (as [cqlserved] runs requests): the interned constraint terms, the
    solver caches and the constraint domain are safe to share that way. *)

open Cql_datalog

type trace_entry = {
  iteration : int;
  rule_label : string;
  fact : Fact.t;
  used : Fact.t list;
      (** the body facts the derivation used, in body-literal order; [[]]
          for a fact rule *)
  subsumed : bool;  (** discarded because a known fact subsumes it *)
}

type stats = {
  iterations : int;  (** number of the last iteration executed *)
  derivations : int;  (** successful rule applications, incl. subsumed *)
  facts_added : int;
  reached_fixpoint : bool;  (** false when a budget stopped the run *)
  index_probes : int;  (** store probes answered from a hash index *)
  index_hits : int;  (** candidate facts returned by indexed probes *)
  facts_skipped : int;
      (** partition facts indexed probes never had to consider *)
  subsumptions_avoided : int;
      (** stored facts subsumption checks skipped thanks to the
          pattern/ground indexes *)
}

type result

val stats : result -> stats
val trace : result -> trace_entry list
(** Every derivation of a traced run, in derivation order, EDB loading
    excluded.  @raise Invalid_argument when the run was not traced. *)

val facts_of : result -> string -> Fact.t list
(** Live facts of a predicate, oldest first, read from the run's store. *)

val all_facts : result -> (string * Fact.t list) list
(** Sorted by predicate, each predicate's facts as {!facts_of}. *)

val total_facts : result -> int
(** Number of stored (non-subsumed) facts, EDB included. *)

val total_idb_facts : result -> edb:Fact.t list -> int
(** Stored facts minus the EDB input size. *)

val answers : result -> Program.t -> Fact.t list
(** Facts of the program's query predicate, sorted by {!Fact.compare}
    (empty when no query is set). *)

type compiled
(** Precompiled register-frame programs for every (rule, pivot) plan of one
    program (see {!Cql_eval.Compile}).  Built once with {!compile_plans} and
    passed back to {!run}/{!materialize} so warm evaluations skip both
    planning and compilation; applies only to the exact program value it was
    built from (physical equality). *)

val compile_plans : Program.t -> compiled
(** Plan and compile every body rule of the program. *)

exception Arity_mismatch of string
(** An EDB fact's arity disagrees with the program's use of its predicate.
    {!run}, {!materialize} and {!insert} check the whole batch before
    touching the store and raise this (with a message naming the fact)
    instead of evaluating; a rejected {!insert} leaves the view unchanged.
    Facts of predicates the program never mentions are accepted and
    inert. *)

val run :
  ?jobs:int ->
  ?max_iterations:int ->
  ?max_derivations:int ->
  ?traced:bool ->
  ?compiled:compiled ->
  Program.t ->
  edb:Fact.t list ->
  result
(** Semi-naive evaluation.  Iteration 0 loads the EDB and fires the
    program's fact rules; subsequent iterations are delta-driven.  Each
    (rule, pivot) plan is compiled once into a register-frame program
    ({!Cql_eval.Compile}).  [compiled] supplies a precompiled artifact for
    this exact program (physical equality), skipping planning and
    compilation entirely.  [traced] (default [false]) records every
    derivation for {!trace} and {!Explain}; an untraced run keeps no
    per-derivation record.
    [jobs] is accepted and ignored: evaluation is sequential, and no result
    ever depended on it.  It stays only because [perfbench/] still passes
    it. *)

val all_ground : result -> bool
(** Every stored fact is ground (the property Theorems 4.4/4.6 preserve). *)

(** {1 Incremental view maintenance}

    {!materialize} evaluates a program once and returns a live handle;
    {!insert} and {!retract} then maintain the fixpoint under EDB changes
    without re-evaluating from scratch.  Insertions run ordinary semi-naive
    delta rounds seeded from the new facts.  Retractions are DRed over a
    recorded support graph:
    every rule firing (head, label, body facts) is kept, so over-deletion
    and re-derivation are pure graph walks and facts outside the deleted
    cone are never re-proved.  A fact's support count (EDB multiplicity +
    live firings) is read off that graph ({!view_counts}).

    Constraint subsumption interacts with deletion through the covered set:
    facts dropped on arrival (or killed by back-subsumption) because a live
    fact covers them are remembered, and retracting their last cover
    resurrects the ones that still have support.

    A view is single-writer: maintenance and reads of one view must not run
    on two domains at once (the server serializes them per view). *)

type view

type maintain_stats = {
  m_op : string;  (** ["materialize"], ["insert"] or ["retract"] *)
  m_batch : int;  (** facts in the request batch *)
  m_inserted : int;  (** EDB facts newly stored (not duplicates/covered) *)
  m_retracted : int;  (** EDB occurrences removed *)
  m_noops : int;  (** duplicate inserts and retractions of absent facts *)
  m_derivations : int;  (** rule firings merged during the rounds *)
  m_over_deleted : int;  (** facts provisionally deleted by DRed *)
  m_rederived : int;  (** over-deleted facts rescued by re-derivation *)
  m_resurrected : int;  (** covered facts revived by a dying cover *)
  m_deleted : int;  (** facts physically removed *)
  m_iterations : int;
  m_complete : bool;  (** the rounds reached fixpoint within the budget *)
}

val materialize :
  ?jobs:int ->
  ?max_iterations:int ->
  ?max_derivations:int ->
  ?compiled:compiled ->
  Program.t ->
  edb:Fact.t list ->
  view * maintain_stats
(** Evaluate the program to fixpoint and return a live view.  The budgets
    become the view's per-operation defaults.  When truncated
    ([m_complete = false]) the view's contents are a sound under-
    approximation and {!view_complete} turns false.  [compiled] and the
    ignored [jobs] as for {!run}. *)

val insert :
  ?max_iterations:int -> ?max_derivations:int -> view -> Fact.t list -> maintain_stats
(** Add EDB facts and restore the fixpoint with semi-naive delta rounds.
    A structural duplicate only adds one to the stored fact's support. *)

val retract :
  ?max_iterations:int -> ?max_derivations:int -> view -> Fact.t list -> maintain_stats
(** Remove one EDB occurrence per given fact (absent facts are counted in
    [m_noops]) and restore the fixpoint: DRed over-deletion, re-derivation
    from surviving support, then resurrection of covered facts whose last
    cover died. *)

val close_view : view -> unit
(** Close the view: further maintenance raises [Invalid_argument];
    accessors keep working. *)

val view_program : view -> Program.t
val view_complete : view -> bool
(** False once any maintenance round was truncated by a budget; the view's
    contents may then under-approximate the fixpoint. *)

val view_edb : view -> Fact.t list
(** The current EDB multiset, oldest first. *)

val view_domain : view -> Cql_constr.Cdomain.t
(** The constraint domain captured when the view was materialized; every
    {!insert}/{!retract} re-derives under it regardless of the caller's
    ambient domain. *)

val view_facts_of : view -> string -> Fact.t list
val view_all_facts : view -> (string * Fact.t list) list
(** Sorted by predicate, facts sorted by {!Fact.compare}. *)

val view_answers : view -> Fact.t list
(** Query-predicate facts, sorted by {!Fact.compare}. *)

val view_counts : view -> (string * (Fact.t * int) list) list
(** Each live fact with its support count (EDB multiplicity + live rule
    firings, from the support graph), sorted as {!view_all_facts};
    predicates with no live facts are omitted. *)

val view_total : view -> int
