(** The cqlserved daemon core: a persistent multi-tenant query service over
    a Unix-domain socket.

    Architecture (all dependency-free, in the style of lib/obs):

    {ul
    {- [workers] domains share the non-blocking listening socket.  An idle
       worker waits for a connection, accepts it and serves it to the end,
       so up to [workers] connections are served concurrently, each
       request running its fixpoint sequentially on its worker domain.
       Further connections wait in the kernel's listen backlog (64), not
       in the server.  Each request sets its own constraint domain
       ({!Cql_constr.Cdomain.with_domain}) and its worker drops its solver
       memo tables after the reply; a view's maintenance runs under the
       {!View_cache} entry's lock.}
    {- Requests and responses are length-prefixed NDJSON frames
       ({!Protocol}).  CQL syntax errors come back as structured
       [parse_error] responses carrying the parser's token/position
       message; malformed frames and JSON come back as [malformed].}
    {- [eval] and [materialize] take one path: admission, a
       {!Plan_cache.plan} looked up in an {!Lru} by the digest of the raw
       pipeline name, domain and program text before anything is parsed
       (a warm repeat query parses only its EDB and skips the rewrite
       pipeline entirely, observable through the [serve.plan_cache.hits]
       counter and the response's ["cache"] field; a miss parses the
       program, then the EDB, then rewrites), then one semi-naive
       fixpoint.  Only its end differs: [eval]
       answers with the run's statistics, [materialize] keeps the result
       alive as an incremental view ({!Cql_eval.Engine.materialize}) in the
       {!View_cache}, keyed by tenant and view name; [insert]/[retract] then
       maintain its fixpoint in place and answer with the updated query
       answers, and [query] reads it without evaluating anything.}
    {- {!Admission} rejects oversized programs, over-parallel tenants and
       over-budget requests before any work happens; admitted requests run
       under the engine's derivation/iteration budgets and a run that is
       truncated by its budget returns a [budget] error rather than a
       silently partial answer.  Maintenance requests pass the same gate,
       and a truncated maintenance round additionally {e drops} the view —
       its contents would under-approximate the fixpoint.}
    {- Every request runs inside an [Obs] span ([serve.request] with
       tenant/op/cache/status fields), so [--trace-json] gives per-request
       NDJSON traces with solver-counter deltas attached.  [stats] reports
       the process's minor and major collections since the server
       started and the words the requests served so far allocated on
       their workers ([gc]).}}

    Shutdown ({!stop}, or SIGTERM/SIGINT in the daemon binary) stops
    accepting, lets every accepted connection finish the requests already
    sent (idle connections are closed at the next quiet moment), then
    joins the workers and closes the socket, which refuses the connections
    still waiting in the backlog.  In-flight evaluations always get their
    responses; a new eval, materialize, insert or retract arriving while
    the server drains is answered [shutting_down], while [query], [ping]
    and [stats] are still served. *)

type config = {
  socket_path : string;
  workers : int;  (** worker domains, one connection each at a time (clamped to >= 1) *)
  limits : Admission.limits;
  plan_cache_entries : int;
  view_cache_entries : int;  (** live materialized views kept (LRU) *)
  max_frame_bytes : int;
}

val default_config : socket_path:string -> config
(** 4 workers, {!Admission.default_limits}, 256 cached plans, 64 live
    views, 4 MiB frames. *)

type t

val start : config -> t
(** Bind the socket (unlinking a stale file first), spawn the [workers]
    domains and return immediately.  Ignores SIGPIPE process-wide (a
    client hanging up mid-response must not kill the daemon). *)

val stop : t -> unit
(** Request shutdown; safe to call from a signal handler (it only flips an
    atomic). *)

val stopping : t -> bool

val wait : t -> unit
(** Block until every worker has drained its connection and been joined,
    then close the socket and unlink its file.  [stop] must be called (by
    anyone) for this to return; a second call returns at once. *)

val connections_served : t -> int

val rewrite :
  pipeline:string ->
  Cql_datalog.Program.t ->
  (string * Cql_datalog.Program.t, Protocol.error_kind * string) result
(** The rewrite a request's [pipeline] names: ["none"] (the program as
    written), ["pred,qrp"] ({!Cql_core.Rewrite.constraint_rewrite}) or
    ["optimal"] ({!Cql_core.Rewrite.optimal} under the all-free adornment).
    A program without a query predicate has nothing to push and runs as
    ["none"] whatever the pipeline.  Returns the pipeline applied and the
    program to evaluate; an unknown pipeline is [Malformed], a rewrite that
    rejects the program [Internal]. *)

(** {1 Request handling} — exposed for tests; the daemon drives it through
    the socket. *)

val respond : t -> string -> Json.t
(** Decode one frame payload, dispatch, and build the response (inside the
    [serve.request] span). *)
