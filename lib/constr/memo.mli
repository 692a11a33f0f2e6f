(** Registry of the memoization caches used by the decision procedures
    ({!Conj.is_sat}, {!Conj.implies}, {!Conj.project}, {!Cset.conj_implies}).

    Caches are keyed by hash-cons ids ({!Conj.id} / {!Atom.id}), which are
    allocated from a monotonic counter and never reused — so a stale entry
    left behind by {!clear_all} or by the weak tables collecting a term can
    never be observed by a later lookup.  Memoization caches {e results
    only}; disabling them ({!enabled} := false, or {!with_caches}) changes
    nothing but speed, and the fuzz harness's cache oracle checks exactly
    that.

    Storage is per-domain via [Domain.DLS]: each domain owns a private
    table per cache, so evaluations running concurrently on different
    domains (the server's requests) memoize without locks.
    Hit/miss counters are atomic and aggregate exactly across domains;
    {!stats}' [entries] field is the calling domain's view. *)

val enabled : bool ref
(** When [false], every cache is bypassed (no lookups, no insertions, no
    hit/miss accounting).  Interning itself is always on — it is the term
    representation, not an optimization that can drift.  Toggle only from
    while no other domain is solving (it is a plain flag read racily by
    them). *)

val max_entries : int ref
(** Per-domain, per-cache bound; a table reaching it is dropped wholesale. *)

type ('k, 'v) cache
(** One registered cache: per-domain tables from ['k] to ['v]. *)

val create : name:string -> ('k, 'v) cache
(** Register a cache.  Call once, at module initialization, from the main
    domain. *)

val cached : ('k, 'v) cache -> 'k -> (unit -> 'v) -> 'v
(** [cached c key compute] looks [key] up in the calling domain's table,
    computing and storing on a miss; bypasses the table entirely when
    {!enabled} is [false]. *)

type table_stats = { name : string; hits : int; misses : int; entries : int }

val stats : unit -> table_stats list
(** Per-cache counters, in registration order.  Hits/misses are summed
    across all domains; [entries] counts the calling domain's table. *)

val hit_rate : table_stats -> float
(** Hits over total lookups, and [0.0] (not nan) for a cache that was
    registered but never queried. *)

val clear_all : unit -> unit
(** Drop every cache's entries in every domain (hit/miss counters
    survive).  The calling domain's tables empty immediately; other
    domains drop theirs at their next access.  Call between independent
    workloads — e.g. the fuzz harness clears caches around each
    cache-oracle run. *)

val reset_stats : unit -> unit
(** Zero every cache's hit/miss counters. *)

val with_caches : bool -> (unit -> 'a) -> 'a
(** [with_caches on f] runs [f] with caching forced on or off and a fresh
    cache state on both entry and exit, restoring the previous {!enabled}
    flag afterwards (exception-safe). *)
