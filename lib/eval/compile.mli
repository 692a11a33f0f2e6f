(** Compiled join plans: register-frame execution of planner plans — the
    engine's one rule executor.

    Each [(rule, pivot)] plan from {!Cql_store.Planner} is compiled once per
    run into a flat program: every body literal becomes an array of
    per-argument {e actions} ([Check_const], [Check_reg], [Bind_reg])
    resolved against the plan's binding order at compile time, and the probe
    key for each step is rebuilt from constants and register reads.  Rule
    variables live in a mutable register frame overwritten per candidate;
    the fresh variables that non-ground facts introduce are bound in a side
    substitution through {!Cql_datalog.Subst.unify_terms}, so each candidate
    combination derives exactly the head fact of substitution semantics.
    The seed evaluator ([Cql_gen.Reference]) is that semantics, kept as the
    fuzz harness's reference.

    The rule's constraint is compiled as well, into a straight-line program
    over value slots — the registers, then one slot per variable its
    equations define.  The equation chain is solved at compile time into
    [Solve] instructions in dependency order, and every other atom becomes a
    [Check] of a precomputed linear form, evaluated in native ints when no
    sum can overflow and in {!Cql_num.Rat} otherwise.

    {b The leaf contract.}  A completed body match takes exactly one of two
    paths, with nothing in between:
    - the compiled program, when the body constraint is [tt] (every fact
      used is ground, or carries no residual), every register the program
      reads holds a number, and every head register a constant (an integer,
      over ℤ).  Its verdict is exact; on acceptance the head is built from
      registers and solved slots by [Fact.of_consts];
    - the generic finisher otherwise — substitution, satisfiability and
      projection, the same code the reference evaluator runs — and always
      for a rule whose constraint or head has a variable that is neither
      bound by the body nor solved by an equation.

    Counters: [engine.compile.programs_compiled], [engine.compile.ops],
    [engine.compile.frame_width] (and [engine.compile.cache_hits] in the
    engine, for precompiled programs). *)

open Cql_constr
open Cql_datalog
module Store = Cql_store.Store
module Planner = Cql_store.Planner

val fact_literal : Fact.t -> Literal.t * Conj.t
(** Instantiate a stored fact as a body-literal match target: pinned numeric
    positions become constants, unpinned ones fresh variables carrying the
    renamed residual constraint. *)

val derive_head_env :
  lookup:(Var.t -> Term.t) -> Rule.t -> Conj.t -> Fact.t option
(** Finish one candidate derivation over an environment: conjoin the rule's
    constraint with the body constraint, instantiate via [lookup]
    (fully-resolved terms, as {!Subst.apply_conj_env} expects), check
    satisfiability and project onto the head fact.  The reference
    evaluator calls it with a substitution lookup; a fact rule derives with
    [~lookup:Term.var] and [Conj.tt]. *)

type code
(** A compiled (rule, plan) program. *)

val compile : Rule.t -> Planner.plan -> code
(** [compile rule plan] compiles one plan.  Partially applied to a rule, it
    numbers the registers (body variables by first occurrence) and compiles
    the constraint program once for all of the rule's plans. *)

val rule : code -> Rule.t
(** The rule the program was compiled from. *)

val idle : code -> Store.t -> bool
(** The plan's semi-naive pivot, the body literal its first step reads
    from the delta partition (its predicate is recorded at compilation),
    has an empty delta: the plan derives nothing this round.  The probe
    that step would issue is counted in the store's stats as one that found
    nothing.  Always [false] for a plan with no delta step. *)

val exec : code -> Store.t -> emit:(Fact.t -> Fact.t list -> unit) -> unit
(** Enumerate every derivation of the program against the store: each step
    probes {!Store.iter_probe_cols} on its bound columns (constants and
    registers that resolve to constants) in the step's partition.  [emit
    fact used] receives each derived head fact with the body facts it used,
    in original body-literal order.  Read-only on the store. *)
