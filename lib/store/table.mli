(** One predicate's fact table: semi-naive partitions, lazy hash indexes on
    probed column sets, and pattern-bucketed subsumption checking.

    Facts live in three partitions mirroring semi-naive evaluation: [Old]
    (facts from iterations before the previous one), [Delta] (the previous
    iteration's new facts) and a pending buffer of facts added during the
    current iteration.  {!advance} promotes delta into old and pending into
    delta at each iteration boundary, updating old's indexes incrementally.

    Subsumption candidates are bucketed by symbolic pattern (only facts with
    identical [Psym]/[Pvar] layouts are comparable) and fully-pinned facts
    are additionally hashed by their value tuple, so duplicate ground facts
    are detected without a single solver call.

    A table is used by one domain at a time: probes build their indexes
    lazily, without synchronization. *)

type cell = Index.cell = { fact : Fact.t; mutable live : bool; mutable part : int }

type partition = Old | Delta | Full  (** [Full] = [Old] + [Delta]. *)

type t

val create : unit -> t

val insert : t -> Fact.t -> unit
(** Append to the pending partition (no subsumption checking here). *)

val known_subsumes : t -> Fact.t -> bool * int
(** [(subsumed, comparisons)]: is the fact subsumed by a live stored fact,
    and how many {!Fact.subsumes} calls the check performed. *)

val back_subsume : t -> Fact.t -> int * Fact.t list
(** Mark live stored facts subsumed by the new fact dead; returns the number
    of comparisons performed and the facts that were killed. *)

val find_equal : t -> Fact.t -> Fact.t option
(** The live stored fact structurally equal to the argument
    ([Fact.compare] = 0), if any. *)

val mem_equal : t -> Fact.t -> bool

val delete : t -> Fact.t -> bool
(** Retire the live cell structurally equal to the fact.  Returns whether
    such a cell existed. *)

val advance : t -> unit
(** Iteration boundary: old ∪= delta, delta ← pending, pending ← ∅. *)

val iter_probe :
  t -> partition -> int list -> Cql_datalog.Term.const list -> (Fact.t -> unit) -> int
(** [iter_probe t part positions key k]: push to [k] the live facts of
    [part] agreeing with [key] on the 0-based [positions], plus facts with
    unpinned indexed columns (a sound over-approximation of the matching
    facts), newest partition first.  Returns the number of facts visited. *)

val iter_scan : t -> partition -> (Fact.t -> unit) -> int
(** Push every live fact of a partition to [k], newest first; returns the
    number of facts. *)

val facts : t -> Fact.t list
(** All live facts (any partition), oldest first. *)

val live_total : t -> int
val part_count : t -> partition -> int
