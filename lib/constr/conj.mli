(** Conjunctions of linear arithmetic atoms, with a complete decision
    procedure for the linear fragment over the reals.

    Satisfiability, projection (existential quantifier elimination) and
    implication are decided exactly — the operations that the paper's
    Theorems 4.2, 4.5 and 4.7 require to "be done exactly" (citing
    Lassez–Maher [8] and Tarski [15]).  Each query takes one route:
    satisfiability by simplex ({!Simplex}) over ℚ or by {!Zsolve} over ℤ,
    projection by Gaussian elimination on equalities plus Fourier–Motzkin
    elimination on inequalities, implication by refutation through
    {!is_sat}.

    A conjunction is a sorted, duplicate-free list of atoms; trivially-true
    atoms are dropped and a detected contradiction is represented by the
    single atom {!Atom.ff}.

    A conjunction is an immutable value that stores its structural hash.
    Two conjunctions built apart from the same atoms are {!equal}, not
    physically equal, except that every empty list gives the shared {!tt}
    and every contradiction the shared {!ff}.  The decision procedures
    ({!is_sat}, {!implies}, {!project}, {!simplify}, {!ztighten}) are
    memoized in caches registered with {!Memo} and keyed by the
    conjunctions themselves (paired with the active {!Cdomain}'s tag where
    the answer depends on it).  Each entry, cache hit or not, counts
    one in the {!Cql_obs.Obs} registry ([solver.sat_checks],
    [solver.implies_checks], [solver.implies_atom_checks],
    [solver.project_calls]); each cache counts its own hits and misses
    ([solver.memo.conj_is_sat.hits], …). *)

type t

(** {1 Construction} *)

val tt : t
(** The empty (true) conjunction. *)

val ff : t
(** A canonical unsatisfiable conjunction. *)

val of_list : Atom.t list -> t
val singleton : Atom.t -> t
val add : Atom.t -> t -> t
val and_ : t -> t -> t
val to_list : t -> Atom.t list

(** {1 Classification} *)

val is_tt : t -> bool
(** Syntactically empty (note: a satisfiable-everywhere conjunction that is
    not syntactically empty exists only transiently; {!simplify} empties
    it). *)

val size : t -> int
val vars : t -> Var.Set.t

val hash : t -> int
(** Structural hash, stored at construction; consistent with {!equal}. *)

(** {1 Decision procedures} *)

val is_sat : t -> bool
(** Exact satisfiability over the active {!Cdomain}: after the memo, over
    the reals by {!Simplex} when it is {!Cdomain.Q}, over the integers by
    {!ztighten} and then {!Zsolve} when it is {!Cdomain.Z}.  Memo entries
    are keyed by domain, so flipping the domain never serves a stale
    verdict. *)

val ztighten : t -> t
(** The integer-tightened form: every atom run through
    {!Zsolve.tighten_atom}.  Equivalent over ℤ, generally strictly
    stronger over ℚ; the identity on conjunctions with nothing to
    tighten.  Used by the Z branch of the decision procedures. *)

val project : keep:Var.Set.t -> t -> t
(** [project ~keep c] is the strongest conjunction over [keep] implied by
    [c]: existential elimination of all other variables (Gauss +
    Fourier–Motzkin).  Unsatisfiability is preserved. *)

val eliminate : Var.t -> t -> t
(** Eliminate a single variable. *)

val eval_at : (Var.t -> Cql_num.Rat.t option) -> t -> bool option
(** Evaluate at a (partial) point: [Some b] when every atom evaluates. *)

val implies_atom : t -> Atom.t -> bool
(** [implies_atom c a] decides [c ⊨ a]: true when [a] is an atom of [c],
    else by refutation — [c ∧ ¬a] is unsatisfiable, one {!is_sat} per
    disjunct of [¬a]. *)

val implies : t -> t -> bool
(** [implies c d] decides [c ⊨ d]: true when [c] and [d] are {!equal},
    else, after the memo, {!implies_atom} for each atom of [d].  An
    unsatisfiable [c] implies everything. *)

val equiv : t -> t -> bool

val simplify : t -> t
(** Remove redundant atoms (atoms implied by the rest) and collapse
    unsatisfiable conjunctions to {!ff}.  Semantics-preserving. *)

(** {1 Substitution} *)

val subst : (Var.t * Linexpr.t) list -> t -> t
(** [subst s c] substitutes every binding of [s] at once (see
    {!Linexpr.subst}), rebuilding each atom once; a conjunction none of
    whose atoms [s] touches is returned as it is. *)

val rename : (Var.t -> Var.t) -> t -> t

(** {1 Comparison and printing} *)

val compare : t -> t -> int
(** Structural order on the canonical atom lists — stable across runs. *)

val equal : t -> t -> bool
(** Structural equality of the canonical atom lists: [==] first, then the
    stored hashes, then {!Atom.equal} atom by atom.  It implies logical
    equivalence, but two equivalent conjunctions may differ structurally
    unless simplified.  Never compare conjunctions, or values holding
    them, with polymorphic [=], [compare] or [Hashtbl.hash]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
