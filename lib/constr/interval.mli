(** Interval-abstraction fast tier in front of the exact decision
    procedures (ROADMAP item 3).

    A per-variable interval domain over the rationals: each variable gets a
    closed/open lower and upper bound (or ±∞), and an environment is derived
    from a conjunction's atoms by bound propagation — direct bounds from
    univariate atoms, plus one-unknown propagation through multi-variable
    atoms, iterated to a fixpoint under a small pass cap.  The environment
    is a sound {e over}-approximation of the conjunction's solution set, so

    - an empty interval proves the conjunction unsatisfiable,
    - a box over which every atom holds proves it satisfiable,
    - box-disjointness on any shared variable proves two conjunctions
      mutually exclusive,

    and all three verdicts agree exactly with what the simplex/FM tier
    would answer.  Anything the box cannot decide is {!Unknown} and the
    caller falls through to the exact procedures unchanged — the tier is
    result-transparent by construction (the fuzz harness's tier oracle
    checks exactly that).

    Environments are memoized per conjunction id in a {!Memo} cache
    (["interval_env"]), so they obey the same epoch clearing and
    per-domain storage as the exact-tier caches.  The tier is always on in
    production; {!with_tier} turns it off for a scope, which is how the
    fuzz harness's tier oracle and the benchmarks compare both sides. *)

type verdict = True | False | Unknown
(** Three-valued answer of the abstract tier.  [True]/[False] are exact
    (equal to the simplex/FM answer); [Unknown] means the box has no
    opinion and the exact tier must decide. *)

val enabled : unit -> bool
(** Whether the tier is on: [true] except inside [with_tier false].
    Callers skip the tier entirely when [false]. *)

val with_tier : bool -> (unit -> 'a) -> 'a
(** [with_tier on f] runs [f] with the tier forced on or off, restoring
    the previous state afterwards (exception-safe).  Call only from
    sequential phases: the state is process-wide. *)

val sat : id:int -> Atom.t list -> verdict
(** Satisfiability of the conjunction with interned id [id] and the given
    canonical atom list: [False] iff propagation empties some interval,
    [True] iff the box is nonempty and every atom is entailed by it. *)

val implies_atom : id:int -> Atom.t list -> Atom.t -> verdict
(** Does the conjunction imply the atom?  [True] when the box entails the
    atom (or is empty), or when every disjunct of the atom's negation is
    interval-unsatisfiable in conjunction with the atoms; [False] when some
    negated disjunct is interval-{e satisfiable} with them (an easy
    refutation). *)

val implies : id:int -> Atom.t list -> Atom.t list -> verdict
(** Conjunction-level entailment: [True] when the left box is empty or
    entails every atom on the right; never [False] (per-atom refutation is
    {!implies_atom}'s job on the fall-through path). *)

val disjoint : id1:int -> Atom.t list -> id2:int -> Atom.t list -> bool
(** [true] when the two boxes have provably empty intersection (some
    variable's intervals do not meet, or either box is empty) — then the
    conjunctions share no solutions.  [false] means "maybe compatible". *)
