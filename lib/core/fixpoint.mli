(** The constraint fixpoint shared by [Gen_predicate_constraints] and
    [Gen_QRP_constraints] (Appendix C; modules {!Pred_constraints} and
    {!Qrp}).

    Each derived predicate starts from a seed constraint set.  A step infers
    constraints for predicates from the current sets; a predicate's set
    grows by disjunction with what a step infers for it unless that is
    already implied.  The iteration stops when a step changes nothing.  In
    general it need not terminate, so it takes an iteration budget; on
    exhaustion every derived predicate falls back to [true] (sound, not
    minimum), as Section 4.2 prescribes. *)

open Cql_constr

type result = {
  constraints : (string * Cset.t) list;  (** per derived predicate *)
  iterations : int;
  converged : bool;  (** false when the iteration budget was exhausted *)
}

val find : result -> string -> Cset.t
(** The constraint for a predicate ([true] when absent). *)

val run :
  span:string ->
  ?max_iters:int ->
  seed:(string * Cset.t) list ->
  ((string -> Cset.t) -> (string -> Conj.t -> unit) -> unit) ->
  result
(** [run ~span ~seed step] iterates from [seed], which lists the derived
    predicates with their starting sets.  [step current infer] calls
    [infer pred c] for each constraint [c] it infers for [pred] from
    [current] (whose sets are [true] outside [seed]); inferences for
    predicates outside [seed] are dropped.  Default [max_iters] is 50.
    Each iteration runs under a span named [span] with its number as the
    field [iteration]; the enclosing span gets the fields [iterations] and
    [converged]. *)
