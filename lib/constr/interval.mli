(** Interval boxes: the disjointness prefilter in front of {!Cset}'s
    implication checks.

    A per-variable interval domain over the rationals: each variable gets a
    closed/open lower and upper bound (or ±∞), and a box is derived from a
    conjunction's atoms by bound propagation — direct bounds from
    univariate atoms, plus one-unknown propagation through multi-variable
    atoms, iterated to a fixpoint under a small pass cap.  The box is a
    sound {e over}-approximation of the conjunction's solution set, so an
    empty box, or two boxes whose intervals on some shared variable do not
    meet, prove that two conjunctions share no solution.  {!Cset.prune}
    and {!Cset.conj_implies} use that to skip implication checks between
    disjoint disjuncts; every decision procedure in {!Conj} is exact and
    never consults the boxes.

    In the integer domain every bound rounds inward to a closed integer
    endpoint, which keeps the box a superset of the integer solutions.

    Boxes are memoized in a {!Memo} cache (["interval_env"]) keyed by the
    conjunction and the constraint domain, so they obey the same clearing
    and per-domain storage as the decision-procedure caches.  The
    prefilter is always on in production; {!with_tier} turns it off for a
    scope, which is how the fuzz harness's Tier oracle and the benchmarks
    check that it never changes a result. *)

val enabled : unit -> bool
(** Whether the prefilter is on: [true] except inside [with_tier false].
    {!Cset} skips it entirely when [false]. *)

val with_tier : bool -> (unit -> 'a) -> 'a
(** [with_tier on f] runs [f] with the prefilter forced on or off,
    restoring the previous state afterwards (exception-safe).  Call only
    from sequential phases: the state is process-wide. *)

val disjoint : Conj.t -> Conj.t -> bool
(** [disjoint c1 c2] is [true] when the two conjunctions' boxes have
    provably empty intersection (some variable's intervals do not meet, or
    either box is empty) — then the conjunctions share no solutions.
    [false] means "maybe compatible". *)
