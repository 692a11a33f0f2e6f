(** Constraint facts [p(x̄; C)] — the values bottom-up evaluation computes
    (Section 2 of the paper).

    A fact maps each argument position to either a symbolic constant or the
    canonical numeric variable [$i], with a conjunction [C] over the [$i]
    constraining the numeric positions.  A ground numeric fact is the special
    case where [C] pins every numeric position to a value; it is stored as
    those values alone, with no conjunction, whichever constructor built it.
    A constraint fact finitely represents the (potentially infinite) set of
    ground facts satisfying [C]. *)

open Cql_num
open Cql_constr
open Cql_datalog

type pos = Psym of string | Pvar  (** position [i] holds the variable [$i] *)

type t = private {
  pred : string;
  args : pos array;
  terms : Term.t array;
      (** per position: the symbol it holds or the value its constraint
          pins it to, else the variable [$i] *)
  constr : Conj.t option;
      (** the canonical constraint; [None] exactly when the fact is ground,
          its pins being the whole constraint *)
}

exception Unsat
(** Raised by constructors when the constraint part is unsatisfiable (such a
    fact denotes no ground facts and must not be built). *)

val make : string -> pos array -> Conj.t -> t
(** [make pred args c] canonicalizes [c] (projects it onto the [$i] of
    numeric positions and simplifies).  The constructor for facts that carry
    a real constraint; ground facts take {!ground}.  When the result pins
    every numeric position it is the ground fact of those values, equal
    ([=]) to the one {!of_consts} builds.
    @raise Unsat if [c] is unsatisfiable. *)

val of_consts : string -> Term.const array -> t
(** The ground fact from constants, built directly: the pins are
    satisfiable over ℚ, so no solver call is made and no conjunction is
    built.  The compiled executor's head constructor; its leaf checks over
    ℤ that every value is an integer before the call.  Unchecked: over ℤ it
    builds a fact {!make} would refute (a fractional pin); use {!ground}
    for constants from outside. *)

val ground : string -> Term.const list -> t
(** The ground fact from constants: {!of_consts}, except that over ℤ a
    fact pinning a fractional value goes through {!make}.  Returns exactly
    what {!make} returns on the pin conjunction.
    @raise Unsat over ℤ when a numeric constant is not an integer. *)

val of_fact_rule : Rule.t -> t
(** Convert a bodyless rule [p(t̄) :- C.] into a fact, e.g. parsed EDB
    clauses.  A ground, unconstrained rule (every [tᵢ] a constant, [C]
    empty) is {!ground}'s, so loading it calls no solver; any other goes
    through {!make}.
    @raise Unsat when [C] is unsatisfiable (over ℤ also when a constant
    [tᵢ] is not an integer).
    @raise Invalid_argument when the rule has body literals. *)

val of_fact_rule_opt : Rule.t -> t option
(** {!of_fact_rule}, with [None] for a clause whose constraint is
    unsatisfiable in the current domain (e.g. one pinning a fractional
    value under ℤ): it denotes the empty relation, so loaders drop it. *)

val pred : t -> string
val arity : t -> int

val cstr : t -> Conj.t
(** The fact's constraint.  A ground fact stores none: its pin conjunction
    ([$i = q] per numeric position) is built on each call. *)

val is_ground : t -> bool
(** Every numeric position is pinned to a single value ([constr] is
    [None]). *)

val ground_value : t -> int -> Rat.t option
(** The value of numeric position [i] (1-based) when pinned. *)

val matches_literal : Literal.t -> t -> bool
(** Cheap necessary condition for the fact to unify with the literal:
    constant arguments agree with the symbolic pattern and pinned values.
    Used by the engine to prune candidates before unification. *)

val subsumes : t -> t -> bool
(** [subsumes general specific]: every ground instance of [specific] is an
    instance of [general].  Requires identical symbolic pattern.  Two ground
    facts compare their values; a constraint met with a ground fact is
    evaluated at its point; only two constraint facts call the solver. *)

val equal : t -> t -> bool
(** [compare a b = 0], decided without ordering: two ground facts are
    equal when they have the same predicate and the same values; two
    constraint facts when they have the same predicate, pattern and
    constraint ({!Conj.equal}).  A ground fact never equals a constraint
    fact. *)

val hash : t -> int
(** A hash consistent with {!equal}, whatever path built the facts: it
    mixes the predicate, the per-position values and, for a constraint
    fact, {!Conj.hash}.  Keys the views' support graphs. *)

val compare : t -> t -> int
(** Structural order: predicate, then the pattern position by position
    ([Pvar] before [Psym], symbols by [String.compare], a shorter pattern
    before its extensions), then {!Conj.compare} on {!cstr}.  Two ground
    facts compare their pins in the order of their pin conjunctions,
    without building them: allocation free.  Orders query answers. *)

val pp : Format.formatter -> t -> unit
(** Prints ground values where pinned, e.g. [m_fib(N1, 5; N1 > 0)] style:
    [m_fib($1, 5; $1 > 0)]. *)

val to_string : t -> string
