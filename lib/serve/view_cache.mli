(** Live materialized views ({!Cql_eval.Engine.view}), keyed by tenant and
    view name in an {!Lru} named [serve.view_cache] — the incremental
    sibling of the plan cache.

    Unlike compiled plans, views are stateful and must be maintained under a
    lock: each entry carries its own mutex, and {!with_view} runs the caller
    holding only that per-view mutex, so maintenance on one view never
    blocks lookups or updates on another.  Replacement (re-materializing an
    existing name), LRU eviction and {!remove} all close the displaced view
    ({!Cql_eval.Engine.close_view}), after waiting for any in-flight
    operation on it.

    Hits/misses/evictions are the {!Lru}'s counters ([serve.view_cache.*])
    and appear in [stats] responses like the plan cache's. *)

type entry
type t = entry Lru.t

val create : max_entries:int -> t

val add : t -> tenant:string -> view:string -> Cql_eval.Engine.view -> unit
(** Insert (or replace) the named view; closes the replaced view and, at
    capacity, the least-recently-used one. *)

val with_view : t -> tenant:string -> view:string -> (Cql_eval.Engine.view -> 'a) -> 'a option
(** Run the function holding the view's mutex; [None] when the tenant has
    no such view (counted as a miss). *)

val remove : t -> tenant:string -> view:string -> bool
(** Drop and close the named view (e.g. after a maintenance round was
    truncated by its budget); [false] when absent. *)
