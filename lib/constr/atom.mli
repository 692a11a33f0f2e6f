(** Single linear arithmetic constraints (Definition 2.1 of the paper).

    An atom is a normalized comparison [e ⋈ 0] with [⋈ ∈ {≤, <, =}]; the
    source forms [e1 ≥ e2] and [e1 > e2] are represented by negating the
    expression.  Expressions are {!Linexpr.integerize}d on construction so
    equal constraints have equal representations (for equalities the leading
    coefficient is made positive). *)

type op = Le | Lt | Eq

type t = private { expr : Linexpr.t; op : op; hash : int }
(** The constraint [expr op 0]: an immutable value that stores its
    structural hash.  Two atoms built apart from the same constraint are
    {!equal}, not physically equal; the memoization caches key by the
    atoms themselves, through {!hash} and {!equal}. *)

(** {1 Construction} *)

val make : Linexpr.t -> op -> t
(** [make e op] is the normalized atom [e op 0]. *)

val le : Linexpr.t -> Linexpr.t -> t
(** [le e1 e2] is [e1 ≤ e2]. *)

val lt : Linexpr.t -> Linexpr.t -> t
val ge : Linexpr.t -> Linexpr.t -> t
val gt : Linexpr.t -> Linexpr.t -> t
val eq : Linexpr.t -> Linexpr.t -> t

val pin : Var.t -> Cql_num.Rat.t -> t
(** [pin x q] is [eq (Linexpr.var x) (Linexpr.const q)] — an {!equal}
    atom — built directly as [den(q)·x − num(q) = 0], without the
    subtraction and normalization of {!make}. *)

val tt : t
(** A trivially true atom ([0 = 0]). *)

val ff : t
(** A trivially false atom ([0 < 0]). *)

(** {1 Classification} *)

val truth : t -> bool option
(** [Some b] when the atom has no variables and evaluates to [b];
    [None] otherwise. *)

val vars : t -> Var.Set.t
val mem : Var.t -> t -> bool

(** {1 Logic} *)

val negate : t -> t list
(** The negation as a disjunction of atoms: [¬(e ≤ 0) = (-e < 0)],
    [¬(e < 0) = (-e ≤ 0)], and [¬(e = 0) = (e < 0) ∨ (-e < 0)]. *)

val eval_at : (Var.t -> Cql_num.Rat.t option) -> t -> bool option
(** [eval_at env a] evaluates the atom when [env] supplies a value for every
    variable; [None] when some variable is unvalued. *)

(** {1 Substitution} *)

val subst : (Var.t * Linexpr.t) list -> t -> t
(** [subst s a] is {!Linexpr.subst} on the expression, renormalized; an
    atom mentioning no variable [s] binds is returned as it is. *)

val rename : (Var.t -> Var.t) -> t -> t

(** {1 Comparison and printing} *)

val compare : t -> t -> int
(** Structural order (operator, then expression) — the canonical atom order
    inside conjunctions. *)

val equal : t -> t -> bool
(** Structural equality: [==] first, then the stored hashes, then operator
    and expression.  Never compare atoms with polymorphic [=]: the
    expression's variable map may be shaped differently for equal atoms. *)

val hash : t -> int
(** Structural hash, stored at construction; consistent with {!equal}. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
