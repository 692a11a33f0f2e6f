(** Join planning: reorder a rule body by a bound-ness heuristic so the
    engine probes indexes instead of enumerating cross-products.

    Each plan is computed once per rule (per semi-naive pivot).  The pivot
    literal — the one reading the previous iteration's delta — is placed
    first; the remaining literals are placed greedily, most bound arguments
    first (constants, or variables bound by already-placed literals), ties
    broken by fewer free arguments and then original position.  A literal's
    store partition depends only on its {e original} body position, so
    reordering preserves exactly the semi-naive coverage of combinations. *)

open Cql_datalog

type step = {
  lit : Literal.t;  (** the body literal to solve at this step *)
  orig : int;  (** its 0-based position in the original body *)
  part : Store.partition;  (** which partition it reads under this pivot *)
}

type plan = step list

val order : pivot:int -> Literal.t list -> plan
(** One evaluation order for the body under the given pivot. *)

val plans : seminaive:bool -> Rule.t -> plan list
(** Every plan the engine needs for one rule: one per pivot when
    semi-naive, a single full-partition plan when naive. *)

val step_bindings : plan -> (Cql_constr.Var.Set.t * Cql_constr.Var.Set.t) list
(** Per step, in plan order: [(bound_before, newly_bound)] — the variables
    bound by earlier steps when this step starts, and the ones this step
    binds for the first time.  The input a plan compiler needs to turn each
    argument into a constant check, a register check or a register bind. *)
