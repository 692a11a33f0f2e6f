(** The Tamaki–Sato fold/unfold steps, restricted to the forms the paper
    needs (Appendix A).

    The definition step introduces [m] rules
    [p'(X̄) :- Cᵢ(X̄), p(X̄)] over distinct variables; the unfold step
    resolves a body literal against all rules defining its predicate; the
    fold step replaces a body occurrence [p(t̄)] by [p'(t̄)] when the rule's
    constraints imply the defining constraint set of [p'] instantiated at
    [t̄].  Both QRP-constraint propagation (Section 4.3) and the GMT
    grounding step (Section 6.2) are sequences of these. *)

open Cql_constr
open Cql_datalog

val definition : primed:string -> orig:string -> arity:int -> Cset.t -> Rule.t list
(** One rule [primed(X̄) :- Cᵢ(X̄), orig(X̄)] per disjunct [Cᵢ] of the
    constraint set (Definition Step). *)

val unfold_literal : defs:Rule.t list -> Rule.t -> Literal.t -> Rule.t list
(** [unfold_literal ~defs r lit] resolves the body occurrence [lit] of [r]
    (which must be a member of [r.body]) against every rule in [defs] (the
    rules whose heads may unify with [lit]).  Definition rules are renamed
    apart; unsatisfiable resolvents are dropped (Unfolding Step). *)

val fold_occurrences :
  ?check:bool -> primed:string -> orig:string -> Cset.t -> Rule.t -> Rule.t option
(** Replace each body occurrence [orig(t̄)] by [primed(t̄)] (Folding Step
    with the definition rules of {!definition}).  With [~check:true]
    (default), verifies the foldability condition — the rule's constraints
    imply [PTOL(orig(t̄), cset)] — and returns [None] if any occurrence
    fails it. *)
