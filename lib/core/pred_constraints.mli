(** Generation and propagation of minimum predicate constraints
    (Section 4.4, procedures [Gen_predicate_constraints] and
    [Gen_Prop_predicate_constraints]; Theorems 4.5 and 4.6).

    A predicate constraint on [p] is a constraint set over [$1 … $n]
    satisfied by every [p] fact derivable bottom-up, independent of the EDB
    contents (Definition 2.4).  Generation iterates an exact
    immediate-consequence step over constraint sets starting from [false]
    for derived predicates; it produces the *minimum* predicate constraints
    when it converges.  The iteration, its budget and its fallback to
    [true] are {!Fixpoint.run}'s. *)

open Cql_constr
open Cql_datalog

type result = Fixpoint.result = {
  constraints : (string * Cset.t) list;  (** per derived predicate *)
  iterations : int;
  converged : bool;  (** false when the iteration budget was exhausted *)
}

val find : result -> string -> Cset.t
(** The constraint for a predicate ([true] when absent). *)

val gen : ?max_iters:int -> Program.t -> result
(** [gen p] runs [Gen_predicate_constraints] with the step [Single_step] of
    Appendix C: for each rule and each choice of disjuncts for its body
    literals, the LTOP of the projection of the combined constraints onto
    the head.  Database predicates get [true].  Default [max_iters] is 50. *)

val propagate : result -> Program.t -> Program.t
(** [Gen_Prop_predicate_constraints]: associate the PTOL of each
    predicate's constraint with every body occurrence of that predicate,
    one rule copy per choice of disjuncts (Appendix C).  Unsatisfiable
    copies are dropped. *)

val gen_prop : ?max_iters:int -> Program.t -> Program.t * result
(** Generation followed by propagation. *)
