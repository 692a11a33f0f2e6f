(** Derivation trees (Definition 2.2 of the paper).

    A derivation tree for a ground/constraint fact has the fact at the root
    labelled with the rule that derived it, and one subtree per body fact
    used.  Database facts are leaves.  Trees are read from a traced run
    ([Engine.run ~traced:true]): each fact's node is its *first*
    non-subsumed derivation in the trace, so each fact gets one canonical
    tree (the paper's notion associates the set of all trees; one witness
    is what query answering needs), and a fact no derivation produced is a
    database fact, labelled ["edb"]. *)

type t = { fact : Fact.t; rule : string; children : t list }

val tree : ?max_depth:int -> Engine.result -> Fact.t -> t option
(** [tree res f] reconstructs the derivation tree of [f] from the trace of
    [res].  [None] when [f] is neither stored nor derived.  [max_depth]
    (default 64) guards against pathological depth; deeper subtrees are
    truncated into leaves labelled ["..."].
    @raise Invalid_argument when [res] was not traced. *)

val depth : t -> int
val size : t -> int
(** Number of nodes. *)

val facts : t -> Fact.t list
(** All facts occurring in the tree, preorder. *)

val pp : Format.formatter -> t -> unit
(** Indented rendering:
    {v
    cheaporshort(madison, newyork, 190, 260)   [r2]
      flight(madison, newyork, 190, 260)   [r4]
        flight(madison, chicago, 50, 100)   [r3]
          singleleg(madison, chicago, 50, 100)   [edb]
        ...
    v} *)

val to_string : t -> string
