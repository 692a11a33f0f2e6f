(** The constraint interpretation domain in force: rationals (the paper's
    setting, the default) or integers.

    The flag is a per-domain scope ({!with_domain}), the same discipline
    {!Simplex.with_pivot_limit} uses for the pivot budget; outside every
    scope it is {!Q}.  A domain spawned inside a scope starts from {!Q},
    so work that needs the caller's choice re-enters the scope itself (as
    [cqlserved] does per request, and a view's maintenance does with the
    domain it was materialized under).

    The decision procedures read the flag through {!current}; memoization
    caches pair their keys with {!tag} so a rational verdict is never
    served to an integer query or vice versa. *)

type t = Q | Z

val current : unit -> t
(** The domain in force on the calling (OCaml) domain. *)

val is_z : unit -> bool

val tag : unit -> int
(** [0] for {!Q}, [1] for {!Z} — paired with the term in a memo-cache key,
    [(tag (), c)]. *)

val with_domain : t -> (unit -> 'a) -> 'a
(** [with_domain d f] runs [f] under domain [d] {e for the calling OCaml
    domain only}, restoring the previous setting afterwards (also on
    exceptions).  [cqlopt] wraps each command in one. *)

val of_string : string -> t option
(** ["rat"]/["q"] ↦ {!Q}, ["int"]/["z"] ↦ {!Z}. *)

val to_string : t -> string
