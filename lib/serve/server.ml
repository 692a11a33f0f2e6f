open Cql_datalog
open Cql_core
module Obs = Cql_obs.Obs
module Engine = Cql_eval.Engine
module Fact = Cql_eval.Fact
module Cdomain = Cql_constr.Cdomain
module Memo = Cql_constr.Memo

type config = {
  socket_path : string;
  workers : int;
  limits : Admission.limits;
  plan_cache_entries : int;
  view_cache_entries : int;
  max_frame_bytes : int;
}

let default_config ~socket_path =
  {
    socket_path;
    workers = 4;
    limits = Admission.default_limits;
    plan_cache_entries = 256;
    view_cache_entries = 64;
    max_frame_bytes = Protocol.max_frame_default;
  }

type t = {
  config : config;
  listen_fd : Unix.file_descr;  (* non-blocking: idle workers race to accept *)
  plans : Plan_cache.plan Lru.t;
  views : View_cache.t;
  adm : Admission.t;
  stop_flag : bool Atomic.t;
  served : int Atomic.t;  (* connections accepted *)
  requests : Obs.counter;
  errors : Obs.counter;
  gc_requests : int Atomic.t;  (* requests whose allocation the workers measured *)
  gc_minor_words : int Atomic.t;  (* what those requests allocated, summed *)
  gc_at_start : Gc.stat;  (* the process's collections before the server *)
  started_ns : int64;
  mutable workers : unit Domain.t list;
}

let stopping t = Atomic.get t.stop_flag
let stop t = Atomic.set t.stop_flag true
let connections_served t = Atomic.get t.served

(* ----- compilation ----- *)

let rewrite ~pipeline (p : Program.t) =
  (* without a query predicate there is nothing to push: every pipeline
     applies as "none" *)
  let pipeline = if p.Program.query = None then "none" else pipeline in
  let pushed f =
    try Ok (pipeline, fst (f p))
    with Invalid_argument msg -> Error (Protocol.Internal, "rewrite failed: " ^ msg)
  in
  match pipeline with
  | "none" -> Ok (pipeline, p)
  | "pred,qrp" -> pushed Rewrite.constraint_rewrite
  | "optimal" ->
      let q = Option.get p.Program.query in
      pushed (Rewrite.optimal ~adornment:(String.make (Program.arity p q) 'f'))
  | other ->
      Error
        ( Protocol.Malformed,
          Printf.sprintf "unknown pipeline %S (use none, pred,qrp or optimal)" other )

let ms_of_ns ns = Int64.to_float ns /. 1e6

let parsed what parse src =
  match parse src with
  | x -> Ok x
  | exception Parser.Error msg -> Error (Protocol.Parse_error, what ^ msg)

(* the facts of an EDB text; a fact the request's domain rejects is dropped *)
let facts_of s = List.filter_map Fact.of_fact_rule_opt (Parser.facts_of_string s)

(* The plan for a program text, looked up before anything is parsed: the
   key is the digest of the raw pipeline name, domain and text.  A hit
   parses only the EDB.  A miss parses the program, then the EDB, then
   rewrites, compiles and inserts, so a request with both texts broken
   reports the program's error and a broken EDB caches no plan.  The caller
   has already entered the request's constraint domain (EDB admission and
   rewrite verdicts depend on it, and the key separates the domains). *)
let compiled_plan t ~pipeline ~domain ~program ~edb =
  let ( let* ) = Result.bind in
  let key = Plan_cache.key ~pipeline ~domain ~source:program in
  match Lru.find t.plans key with
  | Some plan ->
      let* edb = parsed "edb: " facts_of edb in
      Ok (true, plan, edb)
  | None ->
      let* p = parsed "" Parser.program_of_string program in
      let* edb = parsed "edb: " facts_of edb in
      let t0 = Obs.monotonic_ns () in
      let* pipeline, prog = rewrite ~pipeline p in
      let plan =
        {
          Plan_cache.pipeline;
          program = prog;
          (* join plans compile once here, at rewrite time: warm
             requests reuse the register-frame programs as well *)
          programs = Engine.compile_plans prog;
          source_bytes = String.length program;
          rewrite_ns = Int64.sub (Obs.monotonic_ns ()) t0;
        }
      in
      ignore (Lru.add t.plans key plan);
      Ok (false, plan, edb)

(* ----- requests ----- *)

(* every error reply is counted and marks the request's span *)
let error t ?id kind msg =
  Obs.incr t.errors;
  Obs.add_field_str "status" (Protocol.error_kind_to_string kind);
  Protocol.error_response ?id kind msg

(* The gate every evaluating request passes: the tenant holds an in-flight
   slot for the request's duration, and [f] gets the effective budgets,
   which bound a maintenance round's delta and re-derivation rounds exactly
   as they bound a fresh fixpoint. *)
let admitted t ?id ~tenant ~bytes ~max_iterations ~max_derivations f =
  match
    Admission.admit t.adm ~tenant ~program_bytes:bytes ~max_iterations ~max_derivations
  with
  | Admission.Reject_oversized msg -> error t ?id Protocol.Oversized msg
  | Admission.Reject_busy msg | Admission.Reject_budget msg ->
      error t ?id Protocol.Admission msg
  | Admission.Admit { max_iterations; max_derivations } ->
      Fun.protect
        ~finally:(fun () -> Admission.release t.adm ~tenant)
        (fun () -> f ~max_iterations ~max_derivations)

let truncated what iterations derivations =
  Printf.sprintf "%s truncated by its budget after %d iterations / %d derivations" what
    iterations derivations

let answers_json answers = Json.List (List.map (fun f -> Json.Str (Fact.to_string f)) answers)

let maintain_json (ms : Engine.maintain_stats) =
  Json.Obj
    [
      ("batch", Json.Int ms.Engine.m_batch);
      ("inserted", Json.Int ms.Engine.m_inserted);
      ("retracted", Json.Int ms.Engine.m_retracted);
      ("noops", Json.Int ms.Engine.m_noops);
      ("derivations", Json.Int ms.Engine.m_derivations);
      ("over_deleted", Json.Int ms.Engine.m_over_deleted);
      ("rederived", Json.Int ms.Engine.m_rederived);
      ("resurrected", Json.Int ms.Engine.m_resurrected);
      ("deleted", Json.Int ms.Engine.m_deleted);
      ("iterations", Json.Int ms.Engine.m_iterations);
      ("fixpoint", Json.Bool ms.Engine.m_complete);
    ]

(* eval and materialize: one gate, one plan-cache lookup, the parses it
   needs and one fixpoint; a view ([Some name]) is then kept in the view
   cache instead of being summarized by its run statistics *)
let handle_eval t ?id ~tenant ~view ~program ~edb ~pipeline ~domain ~max_iterations
    ~max_derivations () =
  Obs.add_field_str "tenant" tenant;
  Option.iter (Obs.add_field_str "view") view;
  Obs.add_field_str "domain" (Cdomain.to_string domain);
  (* a view's admission also pays for the EDB it keeps *)
  let bytes = String.length program + if view = None then 0 else String.length edb in
  admitted t ?id ~tenant ~bytes ~max_iterations ~max_derivations
  @@ fun ~max_iterations ~max_derivations ->
  (* the request's domain scopes everything with solver contact: EDB
     admission, rewrite, compilation and the run itself; a view remembers
     it, so later insert/retract maintenance re-enters it automatically *)
  Cdomain.with_domain domain @@ fun () ->
  let ( let* ) r f = match r with Ok x -> f x | Error (kind, msg) -> error t ?id kind msg in
  let* cached, plan, edb = compiled_plan t ~pipeline ~domain ~program ~edb in
  let cache = if cached then "hit" else "miss" in
  Obs.add_field_str "cache" cache;
  let prog = plan.Plan_cache.program and compiled = plan.Plan_cache.programs in
  let t0 = Obs.monotonic_ns () in
  let run () =
    match view with
    | None -> Either.Left (Engine.run ~max_iterations ~max_derivations ~compiled prog ~edb)
    | Some name ->
        Either.Right
          (name, Engine.materialize ~max_iterations ~max_derivations ~compiled prog ~edb)
  in
  let* fixpoint =
    match run () with
    | r -> Ok r
    | exception Engine.Arity_mismatch msg -> Error (Protocol.Parse_error, "edb: " ^ msg)
    | exception e -> Error (Protocol.Internal, Printexc.to_string e)
  in
  let eval_ns = Int64.sub (Obs.monotonic_ns ()) t0 in
  let* answers, fields =
    match fixpoint with
    | Either.Left res ->
        let s = Engine.stats res in
        if not s.Engine.reached_fixpoint then
          Error
            (Protocol.Budget, truncated "evaluation" s.Engine.iterations s.Engine.derivations)
        else
          Ok
            ( Engine.answers res prog,
              [
                ( "stats",
                  Json.Obj
                    [
                      ("iterations", Json.Int s.Engine.iterations);
                      ("derivations", Json.Int s.Engine.derivations);
                      ("facts", Json.Int (Engine.total_facts res));
                      ("fixpoint", Json.Bool s.Engine.reached_fixpoint);
                    ] );
              ] )
    | Either.Right (name, (vw, ms)) ->
        if not ms.Engine.m_complete then begin
          Engine.close_view vw;
          Error
            ( Protocol.Budget,
              truncated "materialization" ms.Engine.m_iterations ms.Engine.m_derivations
              ^ "; the view was not cached" )
        end
        else begin
          let answers = Engine.view_answers vw in
          let total = Engine.view_total vw in
          View_cache.add t.views ~tenant ~view:name vw;
          Ok (answers, [ ("facts", Json.Int total); ("maintain", maintain_json ms) ])
        end
  in
  Obs.add_field_str "status" "ok";
  Obs.add_field "answers" (List.length answers);
  Protocol.ok_response ?id
    ((("tenant", Json.Str tenant)
     :: List.map (fun v -> ("view", Json.Str v)) (Option.to_list view))
    @ [
        ("cache", Json.Str cache);
        ("pipeline", Json.Str plan.Plan_cache.pipeline);
        ("domain", Json.Str (Cdomain.to_string domain));
        ("query", match prog.Program.query with Some q -> Json.Str q | None -> Json.Null);
        ("answers", answers_json answers);
      ]
    @ fields
    @ [
        ( "rewrite_ms",
          Json.Float (if cached then 0.0 else ms_of_ns plan.Plan_cache.rewrite_ns) );
        ("eval_ms", Json.Float (ms_of_ns eval_ns));
      ])

let handle_update t ?id ~tenant ~view:name ~retract ~facts ~max_iterations ~max_derivations () =
  Obs.add_field_str "tenant" tenant;
  Obs.add_field_str "view" name;
  admitted t ?id ~tenant ~bytes:(String.length facts) ~max_iterations ~max_derivations
  @@ fun ~max_iterations ~max_derivations ->
  let t0 = Obs.monotonic_ns () in
  let result =
    View_cache.with_view t.views ~tenant ~view:name (fun vw ->
        (* fact admission must use the view's domain: a Z-mode view
           rejects (drops) facts pinning non-integral values exactly as
           its original materialization would have *)
        Cdomain.with_domain (Engine.view_domain vw) @@ fun () ->
        match parsed "facts: " facts_of facts with
        | Error e -> Error e
        | Ok fs -> (
            let op = if retract then Engine.retract else Engine.insert in
            match op ~max_iterations ~max_derivations vw fs with
            | exception Engine.Arity_mismatch msg ->
                (* rejected before any store mutation: the view is intact *)
                Error (Protocol.Parse_error, "facts: " ^ msg)
            | exception Invalid_argument msg -> Error (Protocol.Internal, msg)
            | ms ->
                if not ms.Engine.m_complete then
                  Error
                    ( Protocol.Budget,
                      truncated "maintenance" ms.Engine.m_iterations ms.Engine.m_derivations )
                else Ok (ms, Engine.view_answers vw, Engine.view_total vw)))
  in
  match result with
  | None ->
      error t ?id Protocol.Unknown_view
        (Printf.sprintf
           "tenant %S has no view %S (materialize it first; it may have been evicted)" tenant
           name)
  | Some (Error (Protocol.Budget, msg)) ->
      (* a truncated view under-approximates its fixpoint; drop it
         rather than serve silently stale answers *)
      ignore (View_cache.remove t.views ~tenant ~view:name);
      error t ?id Protocol.Budget (msg ^ "; the view has been dropped")
  | Some (Error (kind, msg)) -> error t ?id kind msg
  | Some (Ok (ms, answers, total)) ->
      Obs.add_field_str "status" "ok";
      Obs.add_field "answers" (List.length answers);
      Protocol.ok_response ?id
        [
          ("tenant", Json.Str tenant);
          ("view", Json.Str name);
          ("op", Json.Str (if retract then "retract" else "insert"));
          ("answers", answers_json answers);
          ("facts", Json.Int total);
          ("maintain", maintain_json ms);
          ("eval_ms", Json.Float (ms_of_ns (Int64.sub (Obs.monotonic_ns ()) t0)));
        ]

let handle_query t ?id ~tenant ~view:name () =
  Obs.add_field_str "tenant" tenant;
  Obs.add_field_str "view" name;
  match
    View_cache.with_view t.views ~tenant ~view:name (fun vw ->
        ( Engine.view_answers vw,
          Engine.view_total vw,
          List.length (Engine.view_edb vw),
          Engine.view_complete vw,
          Engine.view_domain vw ))
  with
  | None ->
      error t ?id Protocol.Unknown_view (Printf.sprintf "tenant %S has no view %S" tenant name)
  | Some (answers, total, edb_facts, complete, domain) ->
      Obs.add_field_str "status" "ok";
      Obs.add_field "answers" (List.length answers);
      Protocol.ok_response ?id
        [
          ("tenant", Json.Str tenant);
          ("view", Json.Str name);
          ("domain", Json.Str (Cdomain.to_string domain));
          ("answers", answers_json answers);
          ("facts", Json.Int total);
          ("edb_facts", Json.Int edb_facts);
          ("fixpoint", Json.Bool complete);
        ]

(* ----- stats ----- *)

let cache_json (c : Lru.stats) =
  Json.Obj
    [
      ("entries", Json.Int c.Lru.entries);
      ("hits", Json.Int c.Lru.hits);
      ("misses", Json.Int c.Lru.misses);
      ("evictions", Json.Int c.Lru.evictions);
    ]

let stats_response t ?id () =
  Protocol.ok_response ?id
    [
      ( "server",
        Json.Obj
          [
            ("workers", Json.Int t.config.workers);
            ("connections_served", Json.Int (Atomic.get t.served));
            ("requests", Json.Int (Obs.value t.requests));
            ("errors", Json.Int (Obs.value t.errors));
            ( "uptime_ms",
              Json.Float (ms_of_ns (Int64.sub (Obs.monotonic_ns ()) t.started_ns)) );
          ] );
      ("plan_cache", cache_json (Lru.stats t.plans));
      ("view_cache", cache_json (Lru.stats t.views));
      (* a minor collection stops every worker domain: the process's
         collections since the server started, and what the requests
         served so far allocated on their workers *)
      ( "gc",
        let q = Gc.quick_stat () and q0 = t.gc_at_start in
        Json.Obj
          [
            ("minor_collections", Json.Int (q.Gc.minor_collections - q0.Gc.minor_collections));
            ("major_collections", Json.Int (q.Gc.major_collections - q0.Gc.major_collections));
            ("requests", Json.Int (Atomic.get t.gc_requests));
            ("request_minor_words", Json.Int (Atomic.get t.gc_minor_words));
          ] );
      ( "tenants",
        Json.List
          (List.map
             (fun (s : Admission.tenant_stats) ->
               Json.Obj
                 [
                   ("tenant", Json.Str s.Admission.tenant);
                   ("inflight", Json.Int s.Admission.inflight);
                   ("served", Json.Int s.Admission.served);
                   ("rejected", Json.Int s.Admission.rejected);
                 ])
             (Admission.tenants t.adm)) );
    ]

(* ----- dispatch ----- *)

let respond t payload =
  Obs.span "serve.request" @@ fun () ->
  Obs.incr t.requests;
  match Result.bind (Json.parse payload) Protocol.request_of_json with
  | Error msg -> error t Protocol.Malformed msg
  | Ok (Protocol.Ping { id }) ->
      Obs.add_field_str "status" "ok";
      Protocol.ok_response ?id [ ("pong", Json.Bool true) ]
  | Ok (Protocol.Stats { id }) ->
      Obs.add_field_str "status" "ok";
      stats_response t ?id ()
  | Ok (Protocol.Eval { id; _ } | Protocol.Update { id; _ }) when stopping t ->
      (* a query is read-only and cheap: it stays allowed while draining *)
      error t ?id Protocol.Shutting_down "server is shutting down; no new evaluations"
  | Ok (Protocol.Eval e) ->
      handle_eval t ?id:e.id ~tenant:e.tenant ~view:e.view ~program:e.program ~edb:e.edb
        ~pipeline:e.pipeline ~domain:e.domain ~max_iterations:e.max_iterations
        ~max_derivations:e.max_derivations ()
  | Ok (Protocol.Update u) ->
      handle_update t ?id:u.id ~tenant:u.tenant ~view:u.view ~retract:u.retract ~facts:u.facts
        ~max_iterations:u.max_iterations ~max_derivations:u.max_derivations ()
  | Ok (Protocol.Query q) -> handle_query t ?id:q.id ~tenant:q.tenant ~view:q.view ()

(* ----- connection plumbing ----- *)

exception Client_gone

let write_all fd bytes =
  let n = Bytes.length bytes in
  let rec go off =
    if off < n then
      match Unix.write fd bytes off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> raise Client_gone
  in
  go 0

(* Blocking read that wakes up at a stop request: poll with a short select
   so a drained server closes idle connections at the next quiet moment,
   while data already in flight keeps being served. *)
let read_with_stop t fd buf off len =
  let rec go () =
    match Unix.select [ fd ] [] [] 0.15 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | [], _, _ -> if stopping t then 0 else go ()
    | _ -> (
        match Unix.read fd buf off len with
        | n -> n
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> 0)
  in
  go ()

(* An exception escaping a handler (a bug, or an allocation failure) is
   answered as a structured internal error, so the client never blocks on
   a reply that will not come; the fd is closed whatever happens. *)
let handle_connection t fd =
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let r = Protocol.reader ~max_frame:t.config.max_frame_bytes (read_with_stop t fd) in
  let out = Buffer.create 1024 in
  let send j =
    Buffer.clear out;
    Protocol.write_frame out j;
    write_all fd (Buffer.to_bytes out)
  in
  let frame_err kind (e : Protocol.frame_error) =
    Obs.incr t.errors;
    send (Protocol.error_response kind (Protocol.frame_error_to_string e))
  in
  let internal e =
    Obs.incr t.errors;
    Protocol.error_response Protocol.Internal ("unhandled exception: " ^ Printexc.to_string e)
  in
  let rec loop () =
    match Protocol.read_frame r with
    | Error Protocol.Closed | Error Protocol.Truncated -> ()
    | Error (Protocol.Bad_header _ as e) -> frame_err Protocol.Malformed e
    | Error (Protocol.Too_large _ as e) -> frame_err Protocol.Oversized e
    | Ok payload ->
        let words = Gc.minor_words () in
        let reply = match respond t payload with reply -> reply | exception e -> internal e in
        (* this domain's allocation is this request's: a worker serves one
           connection, one request at a time *)
        let words = Float.to_int (Gc.minor_words () -. words) in
        ignore (Atomic.fetch_and_add t.gc_minor_words words);
        Atomic.incr t.gc_requests;
        (* memo keys keep their terms alive: once the reply is out, drop
           this worker's solver tables, and only this worker's, so a
           request running on another keeps its warm entries *)
        Fun.protect ~finally:Memo.clear_all (fun () -> send reply);
        loop ()
  in
  try
    (* BSDs hand the listener's O_NONBLOCK on to the accepted socket *)
    Unix.clear_nonblock fd;
    loop ()
  with
  | Client_gone | Unix.Unix_error _ -> ()
  | e -> (
      (* outside a handler (framing, encoding): answer once, then close *)
      try send (internal e) with _ -> ())

(* ----- workers ----- *)

(* Each worker accepts and serves its own connections, one at a time, and
   leaves once a stop is requested.  Idle workers all wake for a new
   connection; the listening socket is non-blocking, so every accept but
   the winner's fails at once.  A failed accept (EAGAIN, EINTR, a client
   that hung up first) just waits again.  Connections beyond [workers]
   wait in the kernel's listen backlog. *)
let worker t =
  while not (stopping t) do
    match Unix.select [ t.listen_fd ] [] [] 0.15 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept ~cloexec:true t.listen_fd with
        | exception Unix.Unix_error _ -> ()
        | fd, _ ->
            Atomic.incr t.served;
            handle_connection t fd)
  done

(* ----- lifecycle ----- *)

let start config =
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX config.socket_path);
     Unix.listen listen_fd 64;
     Unix.set_nonblock listen_fd
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  let config = { config with workers = max 1 config.workers } in
  let t =
    {
      config;
      listen_fd;
      plans = Lru.create ~name:"serve.plan_cache" ~max_entries:config.plan_cache_entries;
      views = View_cache.create ~max_entries:config.view_cache_entries;
      adm = Admission.create config.limits;
      stop_flag = Atomic.make false;
      served = Atomic.make 0;
      requests = Obs.counter "serve.requests";
      errors = Obs.counter "serve.errors";
      gc_requests = Atomic.make 0;
      gc_minor_words = Atomic.make 0;
      gc_at_start = Gc.quick_stat ();
      started_ns = Obs.monotonic_ns ();
      workers = [];
    }
  in
  t.workers <- List.init config.workers (fun _ -> Domain.spawn (fun () -> worker t));
  t

(* the socket goes once every worker has left, so a connection still in
   the backlog is refused rather than left waiting *)
let wait t =
  if t.workers <> [] then begin
    List.iter Domain.join t.workers;
    t.workers <- [];
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    try Unix.unlink t.config.socket_path with Unix.Unix_error _ | Sys_error _ -> ()
  end
