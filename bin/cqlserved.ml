(* cqlserved: the persistent multi-tenant query daemon.

   Listens on a Unix-domain socket for length-prefixed NDJSON requests
   (eval, materialize, insert, retract, query, ping and stats; see
   lib/serve/protocol.mli), caches compiled plans by program digest and
   live views by tenant and name, and serves connections on --workers
   domains, each accepting and serving one connection at a time.
   SIGTERM/SIGINT stop accepting, drain in-flight requests and exit
   cleanly. *)

open Cql_serve
open Cmdliner

let serve socket workers plan_cache_entries view_cache_entries max_program_kb max_inflight
    max_derivations max_iterations tracing =
  Tracing.traced tracing @@ fun () ->
  let config =
    {
      Server.socket_path = socket;
      workers;
      limits =
        {
          Admission.max_program_bytes = max_program_kb * 1024;
          max_inflight_per_tenant = max_inflight;
          max_derivations;
          max_iterations;
        };
      plan_cache_entries;
      view_cache_entries;
      max_frame_bytes = Protocol.max_frame_default;
    }
  in
  let t =
    try Server.start config
    with Unix.Unix_error (e, _, _) ->
      Printf.eprintf "cqlserved: cannot listen on %s: %s\n%!" socket (Unix.error_message e);
      exit 1
  in
  let on_signal _ = Server.stop t in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Printf.eprintf "cqlserved: listening on %s (%d workers)\n%!" socket config.Server.workers;
  Server.wait t;
  Printf.eprintf "cqlserved: drained %d connections, exiting\n%!" (Server.connections_served t);
  0

let socket_arg =
  Arg.(value & opt string "cqlserved.sock" & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket path to listen on (a stale file is replaced)")

let workers_arg =
  Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N"
         ~doc:"Concurrent connection handlers (worker domains)")

let plan_cache_arg =
  Arg.(value & opt int 256 & info [ "plan-cache" ] ~docv:"N"
         ~doc:"Maximum compiled plans kept in the LRU plan cache")

let view_cache_arg =
  Arg.(value & opt int 64 & info [ "view-cache" ] ~docv:"N"
         ~doc:"Maximum live materialized views kept per process (LRU; an evicted \
               view must be re-materialized before further insert/retract)")

let max_program_kb_arg =
  Arg.(value & opt int 1024 & info [ "max-program-kb" ] ~docv:"KB"
         ~doc:"Reject programs larger than this (admission control)")

let max_inflight_arg =
  Arg.(value & opt int 4 & info [ "max-inflight" ] ~docv:"N"
         ~doc:"Concurrent eval requests allowed per tenant")

let max_derivations_arg =
  Arg.(value & opt int 200_000 & info [ "max-derivations" ] ~docv:"N"
         ~doc:"Hard cap on any request's derivation budget; a request asking for \
               more is rejected, an absent budget defaults to the cap")

let max_iterations_arg =
  Arg.(value & opt int 200 & info [ "max-iterations" ] ~docv:"N"
         ~doc:"Hard cap on any request's iteration budget")

let () =
  let term =
    Term.(const serve $ socket_arg $ workers_arg $ plan_cache_arg $ view_cache_arg
          $ max_program_kb_arg $ max_inflight_arg $ max_derivations_arg $ max_iterations_arg
          $ Tracing.term)
  in
  let info =
    Cmd.info "cqlserved" ~version:"1.0.0"
      ~doc:"Persistent multi-tenant CQL query service with a compiled-plan cache"
  in
  exit (Cmd.eval' (Cmd.v info term))
