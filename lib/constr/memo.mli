(** Registry of the memoization caches used by the decision procedures
    ({!Conj.is_sat}, {!Conj.implies}, {!Conj.project}, …) and by the
    disjointness prefilter's boxes ({!Interval}).

    A cache is keyed by the constraint terms themselves, through the hash
    and equality it is created with: the terms' stored structural hashes
    and {!Conj.equal}/{!Atom.equal}, never polymorphic [Hashtbl.hash] or
    [=].  So a hit depends only on the question asked, not on when the GC
    ran.  Memoization caches {e results only}; disabling them ({!enabled}
    := false, or {!with_caches}) changes nothing but speed, and the fuzz
    harness's cache oracle checks exactly that.

    Storage is per-domain via [Domain.DLS]: each domain owns a private
    table per cache, so evaluations running concurrently on different
    domains (the server's requests) memoize without locks.  A key keeps
    its term alive, so every table is bounded (4,096 entries, dropped
    wholesale when full), and a long-lived worker domain drops its own
    tables after each request ({!clear_all}).  Hits and misses are the
    {!Cql_obs.Obs} counters [solver.memo.<name>.hits] and
    [solver.memo.<name>.misses]: they aggregate exactly across domains,
    traced spans carry their deltas and [Obs.zero] resets them; {!stats}'
    [entries] field is the calling domain's view. *)

val enabled : bool ref
(** When [false], every cache is bypassed (no lookups, no insertions, no
    hit/miss accounting).  Toggle only while no other domain is solving
    (it is a plain flag read racily by them). *)

type ('k, 'v) cache
(** One registered cache: per-domain tables from ['k] to ['v]. *)

val create : name:string -> hash:('k -> int) -> equal:('k -> 'k -> bool) -> ('k, 'v) cache
(** Register a cache over keys with the given hash and equality, and its
    two [solver.memo.<name>.*] counters.  [equal] must imply equal
    [hash]es.  Call once, at module initialization, from the main
    domain. *)

val cached : ('k, 'v) cache -> 'k -> (unit -> 'v) -> 'v
(** [cached c key compute] looks [key] up in the calling domain's table,
    computing and storing on a miss; bypasses the table entirely when
    {!enabled} is [false]. *)

type table_stats = { name : string; hits : int; misses : int; entries : int }

val stats : unit -> table_stats list
(** Per-cache counters, in registration order.  Hits/misses are read from
    the registry (summed across all domains); [entries] counts the calling
    domain's table. *)

val clear_all : unit -> unit
(** Drop every cache's entries in the calling domain (hit/miss counters
    survive); other domains' tables are untouched, so a request running
    there keeps its warm entries.  Call between independent workloads —
    the fuzz harness clears caches around each cache-oracle run, and
    [cqlserved] after each reply. *)

val with_caches : bool -> (unit -> 'a) -> 'a
(** [with_caches on f] runs [f] with caching forced on or off and a fresh
    cache state on both entry and exit, restoring the previous {!enabled}
    flag afterwards (exception-safe). *)
