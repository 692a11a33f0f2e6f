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

val is_sat : Atom.t list -> bool
(** Exact satisfiability of the conjunction of the atoms, over the reals;
    agrees with {!Conj.is_sat} (which uses it as its satisfiability
    backend).  Pivots follow the largest violation first and Bland's rule
    after 100,000 pivots in one solve, so every solve terminates. *)

val solve : Atom.t list -> (Var.t * Qeps.t) list option
(** A satisfying assignment (over the extended field; any sufficiently
    small positive ε makes it real-valued), or [None] when unsatisfiable.
    Variables not mentioned map to zero. *)
