(** The Magic Templates transformation (Appendix B) and its constraint
    magic refinement (Section 7.2).

    Two variants are provided:

    - {!templates_bf}: for a bf-adorned program ({!Adorn.program}), the
      magic predicate of [p_a] keeps only the bound argument positions.
      With [~constraint_magic:true] each magic rule also carries the
      projection of the source rule's constraints onto the magic rule's
      variables — the defining property of constraint magic rewriting
      ([Π_Ȳ(C_r) = Π_Ȳ(C_mr)]).  With ground EDB facts and bound-if-ground
      sips, the rewritten program computes only ground facts
      (Proposition 7.1).

    - {!templates_complete}: full Magic Templates with complete
      left-to-right sips — magic predicates keep *all* argument positions,
      so non-ground bindings (e.g. [m_fib(N, X1+X2)]) are passed and the
      evaluation may compute constraint facts.  This is the rewriting of
      the paper's Example 1.2 whose evaluation Table 1 traces. *)

open Cql_datalog

val magic_name : string -> string
(** ["m_" ^ pred]. *)

val is_magic : string -> bool

val inline_seed : Program.t -> Program.t
(** Remove the query's seed guard: when the seed fact is an all-free magic
    fact over distinct variables (always the case for a query predicate
    queried with its arguments free, Section 2), every body occurrence of
    that magic predicate matches it without binding anything, so the
    occurrences and the seed rule can be deleted.  This presents magic
    programs the way the paper writes them (e.g. rule [r6: m_fib(N, 5)] of
    Example 1.2 instead of a seed for the auxiliary query predicate). *)

val templates_bf : ?constraint_magic:bool -> Program.t -> Program.t
(** Input must be an adorned program (every derived predicate named
    [p_<ad>]); [constraint_magic] defaults to [true].  The seed is a magic
    fact for the query predicate over fresh free variables.
    @raise Invalid_argument when a derived predicate is not adorned or no
    query predicate is set. *)

val templates_general :
  magic_head:(Literal.t -> Literal.t) -> Program.t -> Program.t
(** The generic template engine: supply the magic-literal construction (how
    a literal's magic version keeps/encodes its arguments).  Used by the
    GMT transformation, whose magic predicates keep bound and conditioned
    positions. *)

val templates_complete : Program.t -> Program.t
(** No adornment needed; magic predicates have the predicates' full arity
    and magic rules carry the projection of the source rule's constraints
    (complete sips pass constraints and non-ground terms sideways).
    @raise Invalid_argument when no query predicate is set. *)
