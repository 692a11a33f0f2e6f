(** The indexed relation store: one {!Table} per predicate plus counters.

    Probes for a body literal with at least one constant argument (after
    applying the current bindings) are answered from a hash index on the
    bound columns; subsumption checks only compare facts with the same
    symbolic pattern, with duplicate ground facts detected by hash lookup.
    The counters expose how much work indexing saved.

    A store belongs to one evaluation (or one view) and is used by one
    domain at a time; nothing in it is synchronized, lazily built probe
    indexes included. *)

open Cql_datalog

type partition = Table.partition = Old | Delta | Full

type stats = {
  mutable probes : int;  (** candidate lookups issued by the engine *)
  mutable indexed_probes : int;  (** probes answered from a hash index *)
  mutable index_hits : int;  (** facts returned by indexed probes *)
  mutable scans : int;  (** probes with no bound column: full partition scans *)
  mutable scanned_facts : int;  (** facts returned by scans *)
  mutable facts_skipped : int;
      (** partition facts an indexed probe did not have to consider *)
  mutable subsumption_checks : int;
  mutable subsumption_compared : int;  (** {!Fact.subsumes} calls performed *)
  mutable subsumption_avoided : int;
      (** stored facts skipped by the pattern/ground subsumption indexes *)
}

type t

val create : unit -> t
val stats : t -> stats

val known_subsumes : t -> Fact.t -> bool
(** Is the fact subsumed by a live stored fact? *)

val add : t -> Fact.t -> unit
(** Insert a non-subsumed fact: drops stored facts it subsumes, then appends
    it to the pending partition. *)

val add_reporting : t -> Fact.t -> Fact.t list
(** Like {!add}, but returns the stored facts the newcomer back-subsumed
    (killed), so a maintenance layer can remember them as covered. *)

val find_equal : t -> Fact.t -> Fact.t option
(** The live stored fact structurally equal to the argument, if any. *)

val mem_equal : t -> Fact.t -> bool

val delete : t -> Fact.t -> bool
(** Retire the live fact structurally equal to the argument.  Returns
    whether it existed. *)

val advance : t -> unit
(** Iteration boundary on every table: old ∪= delta, delta ← pending. *)

val iter_probe_cols :
  t -> partition -> string -> int list -> Term.const list -> (Fact.t -> unit) -> unit
(** [iter_probe_cols s part pred positions key k]: push to [k] the
    candidate facts of [pred] in [part] for a body literal whose bound
    columns are [positions] (0-based, ascending) with constants [key] —
    live facts agreeing with [key] there, plus facts with an unpinned
    indexed column, newest partition first.  A sound over-approximation:
    callers still check {!Fact.matches_literal} conditions and unify.
    Empty [positions] scans the partition.  The callback must not mutate
    the store. *)

val facts : t -> string -> Fact.t list
(** Live facts of a predicate, oldest first. *)

val all_facts : t -> (string * Fact.t list) list
val total : t -> int
