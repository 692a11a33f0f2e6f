(** Differential fuzzing harness: run generated (program, query, EDB) cases
    through every rewrite pipeline, or an update stream through a
    materialized view, and check the equivalence oracles.

    Eight oracles guard the paper's claims and the implementation:

    + {b Answers} — query-answer equivalence: the rewritten program computes
      exactly the original's query answers (Theorems 4.7/4.8, 6.2, 7.10),
      compared as fact sets under subsumption (exact on the ground answers
      range-restricted programs produce).
    + {b Indexing} — the production engine ({!Cql_eval.Engine}: indexed
      store, join planner, compiled executor) and the seed evaluator
      ({!Reference}) agree on every fact set and on the derivation count,
      on the original program and on every pipeline's output.
    + {b Solver} — Fourier–Motzkin elimination and the exact simplex agree
      on the satisfiability of every constraint conjunction the run touches
      (rule constraints of every program variant, derived fact constraints).
    + {b Monotone} — the rewritten program derives, for each original
      predicate, a subset of the original program's facts (constraint
      pushing only ever {e shrinks} the computed relations; magic and
      supplementary predicates are new and exempt).
    + {b Bound} — on decidable-class inputs (Theorem 5.1) the
      constraint-generation fixpoints converge within the iteration bound.
    + {b Cache} — the decision-procedure memoization caches ({!Cql_constr.Memo})
      never change a result: the [constraint_rewrite] output and the answers
      of its evaluation are identical with caches enabled and disabled, each
      run starting from a fresh cache state.
    + {b Update} — incremental view maintenance never changes a result: a
      random insert/retract sequence applied to a materialized view
      ({!Cql_eval.Engine.materialize}) leaves, after {e every} step, exactly
      the sorted answers, per-predicate fact state, per-fact support counts
      and fixpoint status of a from-scratch re-evaluation of the current
      EDB multiset.  It is the only oracle of {!Generate.Update} mode, and
      runs in no other mode.
    + {b Relaxation} — integer-mode only ([--mode int]): ℤ ⊂ ℚ, so every
      answer the integer-domain evaluation derives must be covered by the
      rational-domain answers of the same program (one-directional — the
      real-shadow FM projection over-approximates, so the converse is
      expected to fail).  Integer-mode cases additionally run {e all} the
      differential oracles above under {!Cql_constr.Cdomain.Z}, which makes
      the cache differential a ℤ transparency check, and swap
      the {b Solver} pair to the two independent exact ℤ procedures (Omega
      elimination vs. branch-and-bound over the rational relaxation).

    The other modes check the rewrite oracles as one ordered list: Indexing
    on the original program, Bound, Cache, Relaxation, then each
    pipeline's Indexing, Answers and Monotone, and Solver last; the first
    failure ends the case.

    On failure the harness shrinks the case — dropping update ops, rules,
    EDB facts, body literals and constraint atoms while the failure
    persists and the program stays well-formed — and renders the minimal
    counterexample as a replayable [.cql] file
    ({!counterexample_to_string} / {!parse_counterexample}). *)

open Cql_constr
open Cql_datalog

type oracle =
  | Answers
  | Indexing
  | Solver
  | Monotone
  | Bound
  | Cache
  | Update
  | Relaxation

val oracle_name : oracle -> string

type update_op = Insert of Cql_eval.Fact.t | Retract of Cql_eval.Fact.t

val update_op_to_string : update_op -> string

type failure = {
  oracle : oracle;
  pipeline : string;  (** e.g. ["pred,qrp,mg"]; ["eval"] for engine oracles *)
  detail : string;
  program : Program.t;
  edb : Cql_eval.Fact.t list;
  updates : update_op list;  (** empty except in update mode *)
}

type stats = {
  mutable cases : int;  (** generated cases *)
  mutable evaluated : int;  (** cases whose original run reached fixpoint *)
  mutable checks : int;  (** individual oracle checks passed *)
  mutable rewrites_skipped : int;
      (** pipelines not applicable to a case (e.g. non-groundable GMT) *)
  mutable rewrites_unconverged : int;
      (** applied pipelines whose pred or QRP fixpoint exhausted [max_iters]
          and fell back to [true] (sound, not minimum) *)
  mutable runs_truncated : int;  (** evaluations stopped by a budget *)
  mutable facts_derived : int;  (** IDB facts over all original runs *)
  mutable gen_retries : int;
      (** {!Generate.Exhausted} recoveries: generation retried on a fresh
          RNG substream *)
}

val new_stats : unit -> stats

val root_name : string list -> string -> string option
(** [root_name preds name]: the predicate of [preds] a rewritten predicate
    [name] refines, found by stripping adornment suffixes ([p_bf]) and
    primes ([p']) in any order (["flight'_bbff"] is ["flight"]); [None]
    for magic ([m_*]) and supplementary ([s_*]) predicates, which denote
    new relations, and for names that reach no predicate of [preds]. *)

type verdict = Agree | Truncated | Fails of oracle * string

val check_rewrite :
  ?max_iterations:int ->
  ?max_derivations:int ->
  original:Program.t ->
  rewritten:Program.t ->
  edb:Cql_eval.Fact.t list ->
  unit ->
  verdict
(** The Answers and Monotone oracles on one rewrite: evaluate both programs
    on the EDB and require the same query answers and, for every
    predicate of [rewritten] that {!root_name} maps back to [original], only
    facts the original derives.  [Truncated] when either evaluation hits a
    budget (defaults as {!check_case}); [Fails] names the first oracle that
    failed and why. *)

val check_case :
  ?tamper:(Cset.t -> Cset.t) ->
  ?max_iterations:int ->
  ?max_derivations:int ->
  ?max_iters:int ->
  mode:Generate.mode ->
  stats ->
  Program.t ->
  Cql_eval.Fact.t list ->
  update_op list ->
  failure option
(** Check one case; [None] when all checks pass.  In {!Generate.Update}
    mode this is the update oracle on the ops: materialize the program over
    the EDB, apply the ops one at a time, and after every step require the
    view to agree with a from-scratch re-evaluation of the current EDB
    multiset (and with {!Cql_eval.Engine.run} on the answers).  The other
    modes ignore the ops and run every pipeline through the rewrite
    oracles.  A case whose baseline evaluation hits a budget is skipped
    ([runs_truncated]).

    [tamper] injects a bug into the rewrite modes: an extra
    ["qrp(tampered)"] pipeline runs a QRP propagation whose definition
    rules are built from each inferred constraint set transformed by the
    given function while folding still trusts the untransformed set (e.g.
    dropping all but one disjunct — the over-tight pushed constraint the
    oracles must catch).  [max_iterations] / [max_derivations] are
    evaluation budgets (defaults 25 / 20000); [max_iters] bounds the
    rewrite fixpoints (default 20). *)

val shrink :
  ?tamper:(Cset.t -> Cset.t) ->
  ?max_iterations:int ->
  ?max_derivations:int ->
  ?max_iters:int ->
  mode:Generate.mode ->
  failure ->
  failure
(** Greedily minimize a failing case: re-run {!check_case} on candidates
    with one update op removed, then with one rule / EDB fact / body
    literal / constraint atom removed, and keep any reduction that still
    fails (bounded number of re-checks). *)

type summary = {
  seed : int;
  count : int;
  stats : stats;
  failure : failure option;  (** the first failure, already shrunk *)
}

val run :
  ?tamper:(Cset.t -> Cset.t) ->
  ?config:Generate.config ->
  ?max_iterations:int ->
  ?max_derivations:int ->
  ?max_iters:int ->
  seed:int ->
  count:int ->
  unit ->
  summary
(** Generate and check [count] cases from the given seed, stopping at (and
    shrinking) the first failure.  [config] defaults to
    [Generate.default Decidable]; in [Update] mode each case's EDB is split
    by {!gen_updates} into an initial database and an update stream.  When
    a case's generation raises {!Generate.Exhausted} the harness retries on
    the next RNG substream (counted in [stats.gen_retries], bounded per
    case). *)

val replay :
  ?mode:Generate.mode -> Program.t -> Cql_eval.Fact.t list -> update_op list -> failure option
(** Re-check a single case (e.g. a parsed counterexample).  A case with
    ops replays in [Update] mode.  Otherwise, when [mode] is omitted it is
    inferred with {!Cql_core.Decidable.in_class} (which can only
    distinguish [Decidable] from [Linear] — pass [Int] explicitly to replay
    an integer-domain counterexample under ℤ). *)

val gen_updates : Rng.t -> Cql_eval.Fact.t list -> Cql_eval.Fact.t list * update_op list
(** Split a generated EDB into an initial database and an insert pool and
    draw a random update sequence: inserts from the pool, retractions of
    present facts (which return to the pool, so retract-then-reinsert
    occurs) and occasional retractions of absent facts. *)

val drop_disjuncts : Cset.t -> Cset.t
(** The canonical injected bug for tests: keep only the first disjunct of a
    constraint set (an unsoundly tightened constraint — what a rewrite that
    "bounds disjuncts to one" without {!Cset.weaken_to_one}'s weakening, or
    a broken {!Cset.disjointify}, would produce). *)

val counterexample_to_string : summary -> failure -> string
(** A replayable [.cql] document: header comments, the program (with
    [#query]), a [% --- edb ---] marker, the EDB facts as clauses, and —
    for update failures — a [% --- updates ---] marker followed by one
    [+ fact.] / [- fact.] line per op. *)

val parse_counterexample : string -> Program.t * Cql_eval.Fact.t list * update_op list
(** Inverse of {!counterexample_to_string} (the op list is empty for
    counterexamples of the other oracles).  A fact or op whose constraint
    is unsatisfiable denotes nothing and is dropped.
    @raise Cql_datalog.Parser.Error on malformed input, a malformed update
    line included. *)

val pp_summary : Format.formatter -> summary -> unit
