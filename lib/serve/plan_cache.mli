(** The compiled-plan cache's entries: rewritten programs keyed by the
    digest of the request's raw text.

    The expensive, reusable artifact of this engine is the constraint-pushing
    rewrite (pred/QRP/magic), not the fixpoint — so the service caches the
    {e rewritten} {!Cql_datalog.Program.t} in an {!Lru} named
    [serve.plan_cache], keyed by {!key}.  The key is computed from the
    request's pipeline name, domain and program text as sent, and looked
    up before anything is parsed: a repeat tenant (same program text,
    same pipeline, same domain) skips the parse of its program as well as
    the rewrite, and parses only its EDB.  The plan is immutable once
    built, so worker domains share it as it is.

    The rewrite itself runs outside the cache's lock, so two concurrent
    first requests for the same key may both compute the plan — the second
    insert wins, which is harmless because compilation is deterministic.

    Hits, misses and evictions are the {!Lru}'s counters
    ([serve.plan_cache.hits] / [.misses] / [.evictions]), so tests can
    assert that a warm repeat query skipped the pipeline. *)

open Cql_datalog

type plan = {
  pipeline : string;
      (** the pipeline actually applied: ["none"] for a program without a
          query, whatever the request named *)
  program : Program.t;  (** rewritten, ready to evaluate *)
  programs : Cql_eval.Engine.compiled;
      (** register-frame programs for every (rule, pivot) join plan of
          [program] — warm requests skip the join compile as well as the
          rewrite (see {!Cql_eval.Engine.compile_plans}) *)
  source_bytes : int;
  rewrite_ns : int64;  (** wall time the rewrite cost on the miss *)
}

val key : pipeline:string -> domain:Cql_constr.Cdomain.t -> source:string -> string
(** Digest of the raw pipeline name, the constraint domain and the program
    text, as the request sent them: it needs no parse.  Rewrite verdicts
    (and hence plans) are domain-dependent, so Q and Z compilations of the
    same source never share an entry. *)
