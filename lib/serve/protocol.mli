(** The cqlserved wire protocol: length-prefixed NDJSON frames.

    Every message — request or response — is one JSON object on one line,
    preceded by its byte length in ASCII decimal and a newline:

    {v
    <length>\n{"op": "eval", "program": "...", ...}\n
    v}

    The length covers the JSON payload including its trailing newline, so a
    stream of frames is also valid NDJSON with interleaved count lines, and
    a reader never needs to scan for message boundaries inside program text.

    {1 Requests}

    {ul
    {- [{"op": "eval", "program": SRC, "edb": SRC, "tenant": T, "pipeline":
       P, "domain": D, "max_iterations": N, "max_derivations": N, "id":
       ID}] — compile (plan-cache keyed by digest of [pipeline] + [domain]
       + [program]), evaluate, and answer.  Only [program] is required;
       [pipeline] is one of ["none"], ["pred,qrp"] (default) or
       ["optimal"]; [domain] is ["rat"] (default) or ["int"] and selects
       the constraint interpretation (integer mode decides constraints
       exactly over ℤ).}
    {- [{"op": "materialize", "view": NAME, "program": SRC, "edb": SRC,
       ...}] — decoded as an [Eval] whose [view] is [Some NAME]: the same
       compile and fixpoint, after which the result is kept as a live
       incremental view, keyed by tenant and [NAME] in the view cache; the
       budgets become the view's per-operation maintenance defaults.
       Re-materializing an existing name replaces the view.}
    {- [{"op": "insert", "view": NAME, "facts": SRC, ...}] /
       [{"op": "retract", ...}] — incrementally maintain the named view
       under the given EDB facts and answer with the updated query answers
       (a poor man's subscription: every update response carries the new
       result).  A maintenance round truncated by its budget drops the view
       (its contents would under-approximate the fixpoint) and answers
       [budget].}
    {- [{"op": "query", "view": NAME}] — the view's current answers,
       without re-evaluating anything.}
    {- [{"op": "ping"}] — liveness probe.}
    {- [{"op": "stats"}] — server, plan-cache, view-cache and per-tenant
       counters.}}

    {1 Responses}

    [{"status": "ok", ...}] or [{"status": "error", "error": {"kind": K,
    "message": M}}] with [kind] one of [malformed], [parse_error],
    [oversized], [admission], [budget], [unknown_view], [shutting_down]
    (eval, materialize, insert and retract while the server drains),
    [internal].  The request [id], when given, is echoed.  An ok eval
    carries [tenant], [cache], [pipeline], [domain], [query], [answers],
    [stats], [rewrite_ms], [eval_ms]; an ok materialize carries [view]
    after [tenant] and [facts], [maintain] in place of [stats]. *)

type request =
  | Eval of {
      id : string option;
      tenant : string;  (** ["anon"] when absent *)
      view : string option;
          (** [Some name] for op ["materialize"]: the view-cache key, scoped
              to the tenant; [None] for op ["eval"] *)
      program : string;
      edb : string;  (** facts source; [""] when absent *)
      pipeline : string;
      domain : Cql_constr.Cdomain.t;
          (** constraint domain from the optional ["domain"] field
              (["rat"]/["int"]); {!Cql_constr.Cdomain.Q} when absent.  A
              view is materialized {e and maintained} under it; updates
              need not (and cannot) restate it *)
      max_iterations : int option;
      max_derivations : int option;
    }
  | Update of {
      id : string option;
      tenant : string;
      view : string;
      retract : bool;  (** [false] = op was ["insert"] *)
      facts : string;  (** facts source, parsed like an [edb] field *)
      max_iterations : int option;
      max_derivations : int option;
    }
  | Query of { id : string option; tenant : string; view : string }
  | Ping of { id : string option }
  | Stats of { id : string option }

type error_kind =
  | Malformed  (** unparseable frame or JSON, unknown op, bad field type *)
  | Parse_error  (** CQL program/EDB syntax error (token/position message) *)
  | Oversized  (** frame or program over the configured byte limits *)
  | Admission  (** rejected by admission control *)
  | Budget  (** evaluation stopped by an iteration/derivation budget *)
  | Unknown_view  (** no such view for this tenant (never made, or evicted) *)
  | Shutting_down
  | Internal

val error_kind_to_string : error_kind -> string

val request_of_json : Json.t -> (request, string) result
(** Validate a decoded frame; the error is a message for a [Malformed]
    response. *)

val eval_request_json :
  ?id:string ->
  ?tenant:string ->
  ?view:string ->
  ?edb:string ->
  ?pipeline:string ->
  ?domain:Cql_constr.Cdomain.t ->
  ?max_iterations:int ->
  ?max_derivations:int ->
  program:string ->
  unit ->
  Json.t
(** An ["eval"] request, or a ["materialize"] request when [view] is
    given. *)

val update_request_json :
  ?id:string ->
  ?tenant:string ->
  ?max_iterations:int ->
  ?max_derivations:int ->
  retract:bool ->
  view:string ->
  facts:string ->
  unit ->
  Json.t

val query_request_json : ?id:string -> ?tenant:string -> view:string -> unit -> Json.t
val ping_request_json : ?id:string -> unit -> Json.t
val stats_request_json : ?id:string -> unit -> Json.t

val error_response : ?id:string -> error_kind -> string -> Json.t
val ok_response : ?id:string -> (string * Json.t) list -> Json.t

(** {1 Framing} *)

val max_frame_default : int
(** 4 MiB. *)

val write_frame : Buffer.t -> Json.t -> unit
(** Append one frame (length line + payload + newline). *)

type frame_error =
  | Closed  (** EOF at a frame boundary: clean end of stream *)
  | Truncated  (** EOF inside a header or payload *)
  | Bad_header of string  (** header line is not a plain decimal length *)
  | Too_large of int  (** declared length exceeds the reader's limit *)

val frame_error_to_string : frame_error -> string

type reader

val reader : ?max_frame:int -> (bytes -> int -> int -> int) -> reader
(** [reader read] wraps a [read buf off len] function ([0] = EOF, e.g.
    [Unix.read fd]) with the buffering needed to split frames. *)

val read_frame : reader -> (string, frame_error) result
(** The next frame's payload (JSON text).  After any [Error] other than
    {!Closed} the stream position is unreliable; close the connection. *)
