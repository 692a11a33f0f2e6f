(** Constraint sets: disjunctions of conjunctions of linear arithmetic
    constraints (Definition 2.3 of the paper).

    Predicate constraints and QRP constraints are values of this type over
    the canonical argument-position variables [$1 … $n].  The empty
    disjunction is [false]; the disjunction containing the empty conjunction
    is [true].  Unsatisfiable disjuncts are pruned on construction, and
    disjuncts implied by another disjunct are removed ("eliminating
    redundant disjuncts", Section 4.2). *)

type t

(** {1 Construction} *)

val tt : t
val ff : t
val of_conj : Conj.t -> t
val of_disjuncts : Conj.t list -> t
val disjuncts : t -> Conj.t list
(** The satisfiable disjuncts, in canonical order. *)

(** {1 Classification} *)

val is_ff : t -> bool
(** No satisfiable disjunct — the set denotes the empty set of ground
    instances. *)

val is_tt : t -> bool
(** Contains a disjunct that is the empty conjunction.  (Sufficient, not
    necessary, for denoting everything.) *)

val num_disjuncts : t -> int
val vars : t -> Var.Set.t

(** {1 Logic} *)

val or_ : t -> t -> t
val and_ : t -> t -> t
(** DNF conjunction: the pairwise conjunctions of disjuncts, pruned. *)

val and_conj : Conj.t -> t -> t

val conj_implies : Conj.t -> t -> bool
(** [conj_implies d cs] decides [d ⊨ cs] by refutation: [d ∧ ¬cs] is
    unsatisfiable.  The DNF of [d ∧ ¬E1 ∧ … ∧ ¬Ek] is searched depth
    first, one negated atom of each disjunct per level, and the first
    satisfiable leaf refutes the implication.  This is the implication test
    of [13] that the paper relies on. *)

val implies : t -> t -> bool
(** [implies c1 c2] decides [c1 ⊨ c2] (written [c1 ⊐ c2] in the paper,
    Definition 2.3). *)

val equiv : t -> t -> bool

val negate_conj : Conj.t -> t
(** [¬d] as a constraint set. *)

(** {1 Transformations} *)

val project : keep:Var.Set.t -> t -> t
(** Disjunct-wise projection (exact for DNF). *)

val rename : (Var.t -> Var.t) -> t -> t
val simplify : t -> t
(** Simplify each disjunct and prune subsumed disjuncts. *)

val disjointify : t -> t
(** An equivalent constraint set in which no two disjuncts intersect
    (Section 4.6, first solution; may grow exponentially). *)

val weaken_to_one : t -> Conj.t
(** The strongest conjunction (over the atoms appearing in the set) implied
    by every disjunct — the paper's second solution in Section 4.6:
    "bound the number of disjuncts to one by simplification", producing a
    sound but in general non-minimum constraint.  Returns {!Conj.ff} for
    the empty set and {!Conj.tt} when nothing is shared. *)

(** {1 Comparison and printing} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
