(** An independent decision procedure for conjunctions of linear arithmetic
    constraints: exact general simplex in the style of Dutertre–de Moura
    (SMT's Simplex for DPLL(T)), over rationals extended with an
    infinitesimal to handle strict inequalities.

    This is deliberately a *second* implementation of satisfiability — the
    Fourier–Motzkin eliminator in {!Conj} is the reference used for
    projection — so the two can cross-check each other (see the property
    tests), and because simplex is usually faster on pure satisfiability
    queries, which dominate the rewriting procedures' work. *)

(** Rationals extended with a positive infinitesimal: [a + b·ε], ordered
    lexicographically.  [x < c] is represented as [x ≤ c - ε]. *)
module Qeps : sig
  type t = { re : Cql_num.Rat.t; eps : Cql_num.Rat.t }

  val of_rat : Cql_num.Rat.t -> t
  val zero : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val scale : Cql_num.Rat.t -> t -> t
  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
end

exception Pivot_limit of { pivots : int }
(** Raised by {!is_sat}/{!solve} when a solve exhausts its pivot budget
    without reaching a verdict.  The first half of the budget uses a
    largest-violation heuristic, the second half pure Bland's rule (which
    cannot cycle), so the exception only fires on genuinely oversized
    tableaus — callers should fall back to another procedure rather than
    retry (see {!Conj.is_sat}). *)

val with_pivot_limit : int -> (unit -> 'a) -> 'a
(** [with_pivot_limit n f] runs [f] with the per-solve pivot budget set to
    [n] (clamped to at least [1]) {e for the calling domain only},
    restoring the previous value afterwards (also on exceptions).
    Concurrent solves on other domains keep their own budget, so one
    request's scoped budget can never leak into another — but note that a
    domain spawned inside [f], or a pool worker running a job submitted
    from it, starts from the default budget, not the caller's override. *)

val is_sat : Atom.t list -> bool
(** Exact satisfiability of the conjunction of the atoms, over the reals;
    agrees with {!Conj.is_sat} (which uses it as its satisfiability
    backend).  @raise Pivot_limit when the pivot budget is exhausted. *)

val solve : Atom.t list -> (Var.t * Qeps.t) list option
(** A satisfying assignment (over the extended field; any sufficiently
    small positive ε makes it real-valued), or [None] when unsatisfiable.
    Variables not mentioned map to zero.
    @raise Pivot_limit when the pivot budget is exhausted. *)
