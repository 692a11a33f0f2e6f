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

    Killed cells (back-subsumed or deleted) are skipped by every read and
    reclaimed once they outnumber the live ones: {!advance} and {!delete}
    then sweep them out of every list, bucket and hash and drop the join
    indexes, so a table's size follows its live facts, not its history.

    A table is used by one domain at a time: probes build their indexes
    lazily, without synchronization. *)

type cell = Index.cell = { fact : Fact.t; mutable live : bool; mutable part : int }

type partition = Old | Delta | Full  (** [Full] = [Old] + [Delta]. *)

type t

val create : unit -> t

val insert : t -> Fact.t -> unit
(** Append to the pending partition (no subsumption checking here).  The
    caller inserts a fact only when no live fact equals it, so the ground
    hash answers {!classify} and {!delete} alone. *)

val known_subsumes : t -> Fact.t -> bool
(** Is the fact subsumed by a live stored fact? *)

val back_subsume : t -> Fact.t -> Fact.t list
(** Mark live stored facts subsumed by the new fact dead; returns the facts
    that were killed. *)

val compared : t -> int
(** The {!Fact.subsumes} calls {!known_subsumes} and {!back_subsume} have
    made so far: the difference across one call is its comparisons. *)

type arrival =
  | Equal of Fact.t  (** a live stored fact {!Fact.equal} to it *)
  | Subsumed  (** no equal live fact, but one that subsumes it *)
  | Absent

val classify : t -> Fact.t -> arrival
(** Where an arriving fact stands, in one pass: {!known_subsumes} that
    tells an equal live fact apart.  Counts its {!Fact.subsumes} calls in
    {!compared} as {!known_subsumes} does. *)

val delete : t -> Fact.t -> bool
(** Retire the live cell {!Fact.equal} to the fact.  Returns whether such a
    cell existed. *)

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
