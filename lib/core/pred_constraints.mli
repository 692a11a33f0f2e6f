(** Generation and propagation of minimum predicate constraints
    (Section 4.4, procedures [Gen_predicate_constraints] and
    [Gen_Prop_predicate_constraints]; Theorems 4.5 and 4.6).

    A predicate constraint on [p] is a constraint set over [$1 … $n]
    satisfied by every [p] fact derivable bottom-up, independent of the EDB
    contents (Definition 2.4).  Generation iterates an exact
    immediate-consequence step over constraint sets starting from [false]
    for derived predicates; it produces the *minimum* predicate constraints
    when it converges.  In general it need not terminate, so an iteration
    budget is taken; on exhaustion the procedure falls back to [true]
    (sound, not minimum) as Section 4.2 prescribes. *)

open Cql_constr
open Cql_datalog

type result = {
  constraints : (string * Cset.t) list;  (** per predicate (derived and EDB) *)
  iterations : int;
  converged : bool;  (** false when the iteration budget was exhausted *)
}

val find : result -> string -> Cset.t
(** The constraint for a predicate ([true] when absent). *)

val gen :
  ?max_iters:int ->
  ?edb_constraints:(string * Cset.t) list ->
  Program.t ->
  result
(** [gen p] runs [Gen_predicate_constraints].  [edb_constraints] supplies
    the (minimum) predicate constraints of database predicates — the
    procedure's input in Appendix C; unlisted EDB predicates get [true].
    Default [max_iters] is 50. *)

val single_step : Program.t -> (string -> Cset.t) -> (string * Cset.t) list
(** One application of the inferred-head-constraint step ([Single_step] of
    Appendix C): for each rule and each choice of disjuncts for its body
    literals, the LTOP of the projection of the combined constraints onto
    the head. *)

val propagate : result -> Program.t -> Program.t
(** [Gen_Prop_predicate_constraints]: associate the PTOL of each
    predicate's constraint with every body occurrence of that predicate,
    one rule copy per choice of disjuncts (Appendix C).  Unsatisfiable
    copies are dropped. *)

val gen_prop : ?max_iters:int -> Program.t -> Program.t * result
(** Generation followed by propagation. *)
