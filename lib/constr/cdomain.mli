(** The constraint interpretation domain in force: rationals (the paper's
    setting, the default) or integers.

    The flag has a process-wide default set at CLI/daemon startup, plus a
    per-domain scoped override for individual requests ({!with_domain}),
    the same override {!Simplex.with_pivot_limit} uses for the pivot
    budget.
    Domains spawned inside a scope, and pool workers running jobs submitted
    from it, start from the process default, so a job that needs the
    caller's choice must capture {!current} and re-enter the scope itself
    (as [cqlserved] does per request, and a view's maintenance does with
    the domain it was materialized under).

    The decision procedures read the flag through {!current}; memoization
    caches salt their keys with {!tag} so a rational verdict is never
    served to an integer query or vice versa. *)

type t = Q | Z

val current : unit -> t
(** The domain in force on the calling (OCaml) domain. *)

val is_z : unit -> bool

val tag : unit -> int
(** [0] for {!Q}, [1] for {!Z} — mixed into memo-cache keys as the low bit
    ([(id lsl 1) lor tag]). *)

val set_default : t -> unit
(** Set the process-wide default (CLI/daemon startup). *)

val with_domain : t -> (unit -> 'a) -> 'a
(** [with_domain d f] runs [f] under domain [d] {e for the calling OCaml
    domain only}, restoring the previous setting afterwards (also on
    exceptions). *)

val of_string : string -> t option
(** ["rat"]/["q"] ↦ {!Q}, ["int"]/["z"] ↦ {!Z}. *)

val to_string : t -> string
