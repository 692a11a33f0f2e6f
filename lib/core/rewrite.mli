(** Top-level rewriting pipelines (Sections 4.5 and 7).

    [constraint_rewrite] is the paper's procedure [Constraint_rewrite]:
    add an auxiliary query rule, generate and propagate minimum predicate
    constraints, then generate and propagate QRP constraints — producing
    minimum QRP constraints when it terminates (Theorem 4.8).
    [optimal] appends constraint magic rewriting, the ordering Theorem 7.10
    proves optimal: [pred, qrp, mg]. *)

open Cql_datalog

type step =
  | Pred  (** [Gen_Prop_predicate_constraints] *)
  | Qrp  (** [Gen_Prop_QRP_constraints] *)
  | Magic of { adornment : string; constraint_magic : bool }
      (** adorn for the query predicate with this adornment (unless every
          derived predicate already carries an adornment of its arity),
          then constraint magic rewriting (Section 7.2) *)
  | Magic_complete  (** full Magic Templates with complete sips *)

type report = {
  pred_constraints : Pred_constraints.result option;
  qrp_constraints : Qrp.result option;
}

val sequence : ?max_iters:int -> step list -> Program.t -> Program.t * report
(** Apply the steps left to right.  The report keeps the last generated
    constraint sets of each kind. *)

val constraint_rewrite : ?max_iters:int -> Program.t -> Program.t * report
(** Procedure [Constraint_rewrite] (Section 4.5): wrap the query predicate
    in an auxiliary rule [q1(X̄) :- q(X̄)], run [pred] then [qrp], delete the
    auxiliary rules, and make the propagated (primed) query predicate the
    program's query — renamed back to the original name, as in the paper's
    Example 4.3 where [cheaporshort] keeps its name while [flight] becomes
    [flight']. *)

val optimal : ?max_iters:int -> adornment:string -> Program.t -> Program.t * report
(** The optimal order of Theorem 7.10: [pred, qrp] (via
    {!constraint_rewrite}) followed by constraint magic rewriting. *)

val balbin :
  ?max_iters:int -> adornment:string -> Program.t -> Program.t * report
(** The Figure 1 pipeline of Balbin et al. (Section 6.1): adorn, C-transform
    (syntactic constraint propagation, {!Qrp.gen_syntactic} — constraints
    treated as ordinary literals, no semantic inference), then magic. *)
