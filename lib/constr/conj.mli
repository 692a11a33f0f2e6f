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

    Conjunctions are hash-consed: every canonical atom list is interned in a
    weak table, so {!equal} is physical equality and {!id} is a unique
    integer.  The decision procedures ({!is_sat}, {!implies},
    {!implies_atom}, {!project}, {!simplify}) are memoized in id-keyed
    caches registered with {!Memo}.  Each entry, cache hit or not, counts
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

val id : t -> int
(** Unique interning id (never reused across the process lifetime); keys the
    memoization caches. *)

val hash : t -> int
(** O(1) precomputed hash, consistent with {!equal}. *)

(** {1 Decision procedures} *)

val is_sat : t -> bool
(** Exact satisfiability over the active {!Cdomain}: after the memo, over
    the reals by simplex when it is {!Cdomain.Q} (Fourier–Motzkin only
    when a solve exhausts its pivot budget), over the integers by
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
(** [implies_atom c a] decides [c ⊨ a]: after the memo, by refutation —
    [c ∧ ¬a] is unsatisfiable, one {!is_sat} per disjunct of [¬a]. *)

val implies : t -> t -> bool
(** [implies c d] decides [c ⊨ d]: after the memo, {!implies_atom} for
    each atom of [d].  An unsatisfiable [c] implies everything. *)

val equiv : t -> t -> bool

val simplify : t -> t
(** Remove redundant atoms (atoms implied by the rest) and collapse
    unsatisfiable conjunctions to {!ff}.  Semantics-preserving. *)

(** {1 Substitution} *)

val subst : Var.t -> Linexpr.t -> t -> t
val rename : (Var.t -> Var.t) -> t -> t

(** {1 Comparison and printing} *)

val compare : t -> t -> int
(** Structural order on the canonical atom lists — stable across runs,
    independent of interning order. *)

val equal : t -> t -> bool
(** Physical equality, equivalent to structural equality of the canonical
    form by interning (implies logical equivalence of the atom sets, but two
    equivalent conjunctions may differ structurally unless simplified). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
