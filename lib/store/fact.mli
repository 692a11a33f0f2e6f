(** Constraint facts [p(x̄; C)] — the values bottom-up evaluation computes
    (Section 2 of the paper).

    A fact maps each argument position to either a symbolic constant or the
    canonical numeric variable [$i], with a conjunction [C] over the [$i]
    constraining the numeric positions.  A ground numeric fact is the special
    case where [C] pins every numeric position to a value.  A constraint fact
    finitely represents the (potentially infinite) set of ground facts
    satisfying [C]. *)

open Cql_num
open Cql_constr
open Cql_datalog

type pos = Psym of string | Pvar  (** position [i] holds the variable [$i] *)

type t = private {
  pred : string;
  args : pos array;
  cstr : Conj.t;
  pinned : Rat.t option array;
      (** cached ground value per position, when the constraints pin one *)
}

exception Unsat
(** Raised by constructors when the constraint part is unsatisfiable (such a
    fact denotes no ground facts and must not be built). *)

val make : string -> pos array -> Conj.t -> t
(** [make pred args c] canonicalizes [c] (projects it onto the [$i] of
    numeric positions and simplifies).
    @raise Unsat if [c] is unsatisfiable. *)

val ground : string -> Term.const list -> t
(** A ground fact from constants. *)

val of_consts : string -> Term.const array -> t
(** [ground] without the canonicalization round-trip: builds the pin
    conjunction directly (on which {!make}'s projection and simplification
    are provably the identity), so no solver memo is consulted.  The hot
    constructor of the compiled executor's all-constant head path. *)

val of_fact_rule : Rule.t -> t
(** Convert a bodyless rule [p(t̄) :- C.] into a fact, e.g. parsed EDB
    clauses.
    @raise Unsat when [C] is unsatisfiable.
    @raise Invalid_argument when the rule has body literals. *)

val pred : t -> string
val arity : t -> int
val cstr : t -> Conj.t

val is_ground : t -> bool
(** Every numeric position is pinned to a single value. *)

val ground_value : t -> int -> Rat.t option
(** The value of numeric position [i] (1-based) when pinned. *)

val matches_literal : Literal.t -> t -> bool
(** Cheap necessary condition for the fact to unify with the literal:
    constant arguments agree with the symbolic pattern and pinned values.
    Used by the engine to prune candidates before unification. *)

val subsumes : t -> t -> bool
(** [subsumes general specific]: every ground instance of [specific] is an
    instance of [general].  Requires identical symbolic pattern. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** Structural order: predicate, then the pattern position by position
    ([Pvar] before [Psym], symbols by [String.compare], a shorter pattern
    before its extensions), then {!Conj.compare}.  Allocation free; keys the
    engine's provenance map and the store's derivation counts. *)

val pp : Format.formatter -> t -> unit
(** Prints ground values where pinned, e.g. [m_fib(N1, 5; N1 > 0)] style:
    [m_fib($1, 5; $1 > 0)]. *)

val to_string : t -> string
