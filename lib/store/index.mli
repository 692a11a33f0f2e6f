(** Hash indexes over bound argument columns of a fact table.

    An index on columns [positions] buckets every fact that is ground on all
    of those columns (a symbolic constant, or a numeric position pinned to a
    single value) under the tuple of those values.  Facts with an unpinned
    constraint variable on an indexed column go to a wildcard list that every
    probe also returns, so constraint facts such as
    [flight(a, b, T, C; T <= 240)] are never missed — probing is a sound
    over-approximation refined by {!Fact.matches_literal} downstream. *)

open Cql_datalog

type cell = { fact : Fact.t; mutable live : bool; mutable part : int }
(** A stored fact; [live = false] marks cells removed by back-subsumption,
    [part] is the partition tag maintained by the table. *)

type t

val hash_const : Term.const -> int
(** The hash of one key value. *)

val hash_mix : int -> int
(** Mix a hash folded from {!hash_const}s, as [(acc * 65599) lxor h], so
    that its low bits, which [Hashtbl.Make] picks buckets by, depend on
    every bit: folded alone they are the low bits of the values, and small
    integers that agree there would share buckets.  The store's index keys
    and ground-fact keys both go through it. *)

val positions : t -> int list
(** The indexed 0-based columns, ascending. *)

val create : int list -> t

val add : t -> cell -> unit
(** Route the cell into its bucket (or the wildcard list). *)

val of_cells : int list -> cell list -> t
(** Build an index over a newest-first cell list. *)

val bucket : t -> Term.const list -> cell list
(** [bucket idx key]: the cells whose indexed columns equal [key].  A probe
    for [key] returns them and the {!wild} cells.  Dead cells are not
    filtered here. *)

val wild : t -> cell list
(** The cells indexable on no key: not ground on some indexed column. *)
