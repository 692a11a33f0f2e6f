(** Exact satisfiability of linear constraint conjunctions over the
    integers.

    The rational procedures ({!Simplex}, the Fourier–Motzkin eliminator in
    {!Conj}) are sound but incomplete over ℤ: [2·X = 2·Y + 1] is
    rationally satisfiable but has no integer solution.  This module
    decides the integer question exactly, in two layers:

    {ol
    {- {b Tightening} ({!tighten_atom}): strict bounds close
       ([e < 0] ↦ [e + 1 ≤ 0]), inequality constants round through the
       coefficient gcd ([a·x ≤ b] ↦ [x ≤ ⌊b/a⌋]), and equalities whose
       coefficient gcd does not divide the constant refute outright.
       Tightening is an equivalence over ℤ, so it runs in front of every
       other procedure ({!Conj.is_sat} tightens with {!Conj.ztighten}
       before calling {!is_sat}).}
    {- {b Omega-test elimination}: equalities are eliminated by exact
       substitution (unit coefficient) or Pugh's symmetric-modulus rewrite;
       inequalities by dark-shadow projection with splinter equalities when
       the dark shadow refutes.  Exact and terminating: each step removes
       a variable or shrinks a coefficient.}}

    Branch-and-bound over {!Simplex.solve} ({!is_sat_bb}) is the reference
    the Omega test is checked against, by the int-mode Solver oracle of
    the fuzz harness and by the property tests.

    Callers normally go through {!Conj.is_sat} with {!Cdomain} set to [Z];
    the direct entry points exist for the property tests and the fuzz
    harness's omega-vs-branch-and-bound cross-check. *)

val tighten_atom : Atom.t -> Atom.t
(** The strongest atom with the same integer solutions derivable per-atom
    (see above).  Idempotent; returns the argument physically unchanged
    when nothing tightens.  Ground atoms are returned as-is (their truth
    does not depend on the domain). *)

val is_sat : Atom.t list -> bool
(** Exact integer satisfiability of the conjunction by Omega-test
    elimination. *)

val is_sat_bb : Atom.t list -> bool
(** Branch-and-bound only (no Omega elimination), with every variable
    clamped to the von zur Gathen–Sieveking solution bound so that
    branching on fractional relaxation values terminates — an independent
    second implementation, kept as the reference of the cross-checks. *)
