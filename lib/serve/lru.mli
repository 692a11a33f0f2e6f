(** A bounded string-keyed map with least-recently-used eviction, behind
    one mutex: the structure under both of the daemon's caches
    ({!Plan_cache} plans and {!View_cache} live views).

    Recency is a tick bumped by every {!find} hit and {!add}; at capacity
    {!add} evicts the entry with the oldest tick.  Hits, misses and
    evictions are lib/obs counters named after the cache
    ([<name>.hits] / [.misses] / [.evictions]), so per-request trace spans
    carry the cache outcome; the cells are process-wide, shared by every
    cache created under one name. *)

type 'a t

val create : name:string -> max_entries:int -> 'a t
(** At most [max 1 max_entries] entries; registers the three counters. *)

val find : 'a t -> string -> 'a option
(** [Some] marks the entry most recently used and counts a hit; [None]
    counts a miss. *)

val add : 'a t -> string -> 'a -> 'a list
(** Insert the binding, replacing any value under the key (the later of
    two concurrent inserts wins); at capacity, first evict the
    least-recently-used entry.  Returns the values displaced, the replaced
    one before the evicted one, so the caller can release them outside the
    lock. *)

val remove : 'a t -> string -> 'a option
(** Unbind the key and return its value; not counted as an eviction. *)

val size : 'a t -> int

type stats = { entries : int; hits : int; misses : int; evictions : int }

val stats : 'a t -> stats
