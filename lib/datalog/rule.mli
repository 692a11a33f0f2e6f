(** Rules [p(X̄) :- C, p1(X̄1), …, pn(X̄n)] in normal form (Section 2).

    [C] is a conjunction of linear arithmetic constraints; body literals are
    ordinary predicate literals.  A rule with an empty body is a (constraint)
    fact. *)

open Cql_constr

type t = {
  label : string;  (** e.g. ["r1"]; informational, used in traces *)
  head : Literal.t;
  body : Literal.t list;
  cstr : Conj.t;
}

val make : ?label:string -> Literal.t -> Literal.t list -> Conj.t -> t
val fact : ?label:string -> Literal.t -> Conj.t -> t
val is_fact : t -> bool

val vars : t -> Var.Set.t
val head_vars : t -> Var.Set.t
val body_vars : t -> Var.Set.t

val apply : Subst.t -> t -> t
(** Apply a substitution to head, body and constraints.
    @raise Subst.Type_error on symbolic constants in constraints. *)

val rename_apart : t -> t
(** Rename all variables of the rule to globally fresh ones. *)

val relabel : string -> t -> t

val copy_label : t -> string -> string
(** [copy_label r suffix]: the label of a rule derived from [r], [r]'s
    label followed by [suffix]; a copy of an unlabelled rule is unlabelled
    too (a bare suffix would not parse back as a label). *)

val grounded_vars : t -> Var.Set.t
(** Variables bound to ground terms once the body literals are: body literal
    variables, closed under equality constraints with a single unknown
    (e.g. [T = T1 + T2 + 30] grounds [T]). *)

val is_range_restricted : t -> bool
(** Every head variable is in {!grounded_vars} (the sufficient condition of
    footnote 8 for computing only ground facts, given ground EDB facts). *)

val compare : t -> t -> int
val equal : t -> t -> bool

val equal_mod_renaming : t -> t -> bool
(** Equality up to consistent variable renaming and reordering of body
    literals/constraint atoms (used to compare mechanically-derived programs
    against the paper's). *)

val prettify : t -> t
(** Rename the rule's variables to short readable names ([X], [Y1], ...)
    based on their original base names; purely cosmetic, used before
    printing transformation outputs. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
