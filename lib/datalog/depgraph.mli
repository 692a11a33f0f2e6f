(** Predicate dependency graph and strongly connected components.

    The GMT grounding procedure (Section 6.2) processes SCCs of the adorned
    program in topological order, highest (query) SCC first; recursion
    checks ("[q] is not recursive with [p]", Definition 6.1) are SCC
    membership tests. *)

type t

val of_program : Program.t -> t
(** Graph with an edge [p -> q] whenever [q] occurs in the body of a rule
    defining [p]. *)

val sccs_top_down : t -> string list list
(** SCCs with the query SCC first — the order [Ground_Fold_Unfold]
    iterates in. *)

val same_scc : t -> string -> string -> bool
(** [same_scc g p q] iff [p] and [q] are in the same SCC: the mutual
    recursion test. *)
