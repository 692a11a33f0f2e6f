(** Substitutions over flat terms, and most-general unifiers.

    Because rules are normalized (arguments are variables or constants),
    unification is the simple flat case: a most general unifier binds
    variables to variables or constants.  Substituting a numeric constant
    into an arithmetic constraint is meaningful; substituting a *symbolic*
    constant into one raises {!Type_error} (such resolvents only arise from
    ill-typed programs). *)

open Cql_constr

type t
(** A finite map from variables to terms, idempotent on its domain. *)

exception Type_error of string

val empty : t
val is_empty : t -> bool
val bindings : t -> (Var.t * Term.t) list
val of_bindings : (Var.t * Term.t) list -> t
(** Unchecked construction; callers must ensure idempotence. *)

val find : Var.t -> t -> Term.t option

val resolve : t -> Term.t -> Term.t
(** Chase a term through the substitution to its representative: a constant,
    or the final unbound variable of the binding chain. *)

val apply_term : t -> Term.t -> Term.t
val apply_literal : t -> Literal.t -> Literal.t

val apply_conj : t -> Conj.t -> Conj.t
(** @raise Type_error when a variable is bound to a symbolic constant. *)

(** {2 Environment-based substitution}

    The same substitution primitives over an abstract environment
    [lookup : Var.t -> Term.t] that must return the {e fully-resolved}
    binding of a variable (the variable itself when unbound).  The map-based
    functions above are wrappers over these with [lookup = resolve]; the
    compiled join-plan executor supplies a register-file lookup instead, so
    both execution modes share one substitution semantics. *)

val apply_term_env : lookup:(Var.t -> Term.t) -> Term.t -> Term.t
val apply_literal_env : lookup:(Var.t -> Term.t) -> Literal.t -> Literal.t

val apply_linexpr_env : lookup:(Var.t -> Term.t) -> Linexpr.t -> Linexpr.t
(** @raise Type_error when a variable resolves to a symbolic constant. *)

val apply_atom_env : lookup:(Var.t -> Term.t) -> Atom.t -> Atom.t list
val apply_conj_env : lookup:(Var.t -> Term.t) -> Conj.t -> Conj.t
(** @raise Type_error when a variable resolves to a symbolic constant. *)

val unify : Literal.t -> Literal.t -> t option
(** Most general unifier of two literals, or [None] when they do not unify
    (different predicate, arity, or clashing constants). *)

val unify_terms : t -> Term.t -> Term.t -> t option
(** Unify two terms under an existing substitution (both are resolved
    first); the building block of {!unify_under}. *)

val unify_under : t -> Literal.t -> Literal.t -> t option
(** Extend an existing substitution. *)

val renaming_of : Var.Set.t -> suffix:string -> t
(** A substitution renaming each variable in the set to a fresh variable
    (used to rename rules apart). *)

val pp : Format.formatter -> t -> unit
