(** Seeded random generation of well-formed CQL programs and finite EDBs.

    Generated programs respect every invariant the rewriting procedures
    assume: rules are in normal form (arguments are variables or constants),
    every rule is range-restricted (head variables grounded by body literals
    or single-unknown equality constraints, footnote 8), recursion is
    stratified (a predicate's rules use only predicates of lower strata plus
    the predicate itself), and each derived predicate has a non-recursive
    base rule.  Argument positions are typed numeric or symbolic at
    predicate-creation time so constraints only ever touch numeric
    variables and EDB facts are well-typed.

    Four modes:

    - {!Decidable}: constraints restricted to the decidable class of
      Theorem 5.1 — [X op Y] / [X op c] with [op ∈ {≤, <, ≥, >}], no
      arithmetic — so [Decidable.in_class] holds by construction and the
      Theorem 5.1 iteration-bound oracle applies.
    - {!Linear}: the full linear fragment — scaled variables, sums,
      equality-defined head arguments ([H = X + Y]) — which can make
      bottom-up evaluation diverge (backward-Fibonacci style); the harness
      runs these under budgets.
    - {!Int}: linear atoms biased toward the places ℚ and ℤ verdicts
      diverge — non-unit coefficients ([2X ≤ 7] tightens to [X ≤ 3]),
      strict bounds (which close over ℤ), and divisibility traps
      ([2X = 2Y + 1], Q-sat but Z-unsat).  The harness evaluates these
      cases under {!Cql_constr.Cdomain.Z}.
    - {!Update}: {!Decidable} programs over an EDB pool twice as deep,
      for the harness's update oracle, which inserts facts from the pool
      into a materialized view and retracts them again. *)

open Cql_datalog

type mode = Decidable | Linear | Int | Update

val mode_of_string : string -> mode option
val mode_to_string : mode -> string

type config = {
  mode : mode;
  edb_preds : int;  (** database predicates (at least 1) *)
  idb_preds : int;  (** derived predicates (at least 1) *)
  max_arity : int;
  max_rules_per_pred : int;
  max_body_lits : int;
  max_constraint_atoms : int;
  max_edb_facts : int;  (** facts per database predicate *)
  const_range : int;  (** numeric constants drawn from [0, const_range] *)
  recursion : bool;
}

val default : mode -> config
(** The configuration the harness runs each mode with; {!Update}'s
    [max_edb_facts] is twice the other modes'. *)

exception Exhausted of { attempts : int }
(** {!case} draws candidate programs and keeps only those passing the
    well-formedness filters; [Exhausted] is raised when a run of [attempts]
    consecutive candidates all failed (possible for tight configs, e.g.
    [Decidable] mode with [max_constraint_atoms] large relative to arity).
    Callers with a seed stream should retry with a fresh split — see
    {!Harness.run}. *)

val case : ?attempts:int -> Rng.t -> config -> Program.t * Cql_eval.Fact.t list
(** A random (program, EDB) pair.  The program has a query predicate set,
    passes {!Program.check} and {!Program.is_range_restricted}; the EDB
    facts are ground, one batch per database predicate occurring in the
    program.  In [Decidable] and [Update] mode the program is in the
    Theorem 5.1 class.
    @raise Exhausted after [attempts] (default 20, clamped to at least 1)
    failed draws. *)

val program : ?attempts:int -> Rng.t -> config -> Program.t
(** Just the program part of {!case}.  @raise Exhausted as {!case}. *)
