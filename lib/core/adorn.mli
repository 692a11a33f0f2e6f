(** Adornments and sideways information passing (Appendix B).

    An adornment is a string over ['b']/['f'] (bound/free), one character
    per argument position; GMT's bcf adornments ({!Gmt.adorn_bcf}) add
    ['c'] (conditioned).  A 0-ary predicate has exactly one adornment, the
    empty one.  We implement full left-to-right sips with the
    bound-if-ground rule: an argument of a body literal is bound iff it is a
    constant or its variable is ground given the head's bound arguments, the
    literals to its left, and the rule's equality constraints (the closure
    of {!Cql_datalog.Rule.grounded_vars}).  Derived predicates are renamed
    [p_<adornment>]; database predicates are left alone. *)

open Cql_datalog

type adornment = string

val adorned_name : string -> adornment -> string
(** [adorned_name "p" "bf"] is ["p_bf"]; [adorned_name "p" ""] is ["p"]. *)

val split_adorned : string -> (string * adornment) option
(** Inverse of {!adorned_name} on a non-empty adornment: recognizes a
    trailing [_] followed by [b], [c] and [f] characters. *)

val adornment_of : Literal.t -> adornment option
(** The adornment of an adorned literal: the one {!split_adorned} reads off
    its predicate's name when its length is the literal's arity, or the
    empty one when the literal is 0-ary. *)

val bound_args : adornment -> 'a list -> 'a list
(** Keep the arguments at bound positions.
    @raise Invalid_argument on length mismatch. *)

val reachable :
  adorn_rule:(string list -> Rule.t -> adornment -> Rule.t * (string * adornment) list) ->
  query:string ->
  query_adornment:adornment ->
  Program.t ->
  Program.t
(** The (pred, adornment) versions reachable from [query] queried with
    [query_adornment]: [adorn_rule derived r ad] adorns a rule [r] of a
    predicate queried with [ad] ([derived] lists the derived predicates)
    and returns the versions its body requests.  {!program} is this with
    the bf rule adorner; {!Gmt.adorn_bcf} passes a bcf one. *)

val program : query_adornment:adornment -> Program.t -> Program.t
(** Adorn a program for its query predicate queried with the given
    adornment, producing only the (pred, adornment) versions reachable from
    the query (Definition B.2).  The result's query predicate is the
    adorned query name.
    @raise Invalid_argument when no query predicate is set or the adornment
    length does not match the query predicate's arity. *)
