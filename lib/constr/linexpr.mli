(** Linear expressions [a1·X1 + … + an·Xn + c] with exact rational
    coefficients.

    The representation keeps no zero coefficients, so two expressions are
    numerically equal iff {!compare} returns [0]. *)

open Cql_num

type t

(** {1 Construction} *)

val zero : t
val const : Rat.t -> t
val of_int : int -> t
val var : Var.t -> t

val term : Rat.t -> Var.t -> t
(** [term a x] is the monomial [a·x]. *)

val affine : Rat.t -> Var.t -> Rat.t -> t
(** [affine a x c] is [a·x + c], built directly. *)

val of_terms : (Rat.t * Var.t) list -> Rat.t -> t
(** [of_terms [(a1,x1);…] c] builds [a1·x1 + … + c], merging duplicates. *)

(** {1 Arithmetic} *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : Rat.t -> t -> t

(** {1 Accessors} *)

val coeff : Var.t -> t -> Rat.t
(** Zero when the variable does not occur. *)

val constant : t -> Rat.t
val vars : t -> Var.Set.t
val is_const : t -> bool

val terms : t -> (Var.t * Rat.t) list
(** Variable/coefficient pairs in increasing variable order. *)

val iter : (Var.t -> Rat.t -> unit) -> t -> unit
(** [iter f e] calls [f] on the pairs of {!terms}, in the same order. *)

(** {1 Substitution} *)

val subst : (Var.t * t) list -> t -> t
(** [subst s t] replaces every variable bound in [s] by its expression, all
    at once; no expression in [s] may mention a variable [s] binds, so the
    result is that of substituting the bindings one after another.  An
    expression mentioning no bound variable is returned as it is ([==]). *)

val rename : (Var.t -> Var.t) -> t -> t
(** Apply a variable renaming.  The renaming must be injective on the
    variables of the expression or coefficients will merge. *)

(** {1 Normalization helpers} *)

val integerize : t -> t
(** Scale by a positive rational so all coefficients and the constant are
    coprime integers (the canonical representative of the positive ray of the
    expression).  Zero maps to zero; an expression already in that form is
    returned as it is ([==]). *)

(** {1 Comparison and printing} *)

val compare : t -> t -> int
val equal : t -> t -> bool

val hash : t -> int
(** Structural hash, consistent with {!equal}: it folds over the terms in
    variable order, so it does not depend on how the map was built.
    {!Atom} stores it in every atom. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
