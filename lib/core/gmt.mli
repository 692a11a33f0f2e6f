(** The GMT (Ground Magic Templates) transformation of Mumick et al.,
    reconstructed as Magic Templates plus a fold/unfold grounding step —
    the paper's Section 6.2 contribution ([Ground_Fold_Unfold],
    Theorem 6.2, Figure 2).

    The class of [bcf] adornments adds a condition ([c]) adornment for
    argument positions that are not bound to ground terms but are
    independently constrained.  Magic predicates keep both bound and
    conditioned positions, so the Magic Templates output [P^{ad,mg}] may
    contain non-range-restricted magic rules; for {e groundable} programs
    (Definition 6.1) the grounding step replaces each conditioned magic
    predicate by supplementary predicates ([s_k_p]) whose rules are
    range-restricted, via a definition/unfold/fold sequence per SCC of the
    adorned program. *)

open Cql_datalog

val adorn_bcf : query_adornment:string -> Program.t -> Program.t
(** bcf-adorn the program for its query predicate (left-to-right sips; a
    variable is conditioned when a constraint links it to ground or
    conditioned variables and constants).
    @raise Invalid_argument without a query predicate. *)

val groundable : Program.t -> bool
(** Definition 6.1 on a bcf-adorned program. *)

val magic : Program.t -> Program.t
(** Magic Templates with grounding sips on a bcf-adorned program: magic
    predicates keep bound and conditioned positions, grounding subgoals are
    moved before non-grounding ones, and magic rules carry the projection of
    the rule's constraints (constraint magic). *)

val ground_fold_unfold : adorned:Program.t -> Program.t -> Program.t
(** [ground_fold_unfold ~adorned pmg] applies the grounding fold/unfold
    sequence SCC by SCC (procedure [Ground_Fold_Unfold]); on groundable
    programs the result is range-restricted and query-equivalent
    (Theorem 6.2). *)

val pipeline : query_adornment:string -> Program.t -> Program.t
(** Figure 2: adorn (bcf) → Magic Templates → grounding.  The result's
    magic seed is inlined ({!Magic.inline_seed}) so it matches the paper's
    presentation.
    @raise Invalid_argument when the adorned program is not groundable. *)
