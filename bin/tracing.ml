(* --trace-json and --metrics: the tracing flags of cqlopt's commands and
   of cqlserved, with the one writer that reports what they recorded. *)

open Cmdliner

let trace_json_arg =
  Arg.(value & opt (some string) None & info [ "trace-json" ] ~docv:"FILE"
         ~doc:"Enable phase tracing and, when the command finishes (cqlserved: after its \
               drain), write the recorded span events as NDJSON (one JSON object per line) \
               to $(docv), or to stdout for '-'")

let metrics_arg =
  Arg.(value & flag & info [ "metrics" ]
         ~doc:"Enable phase tracing and, when the command finishes (cqlserved: after its \
               drain), print a per-phase timing summary plus all nonzero counters \
               (decision-procedure calls and cache hits and misses among them) to stderr")

let term =
  Term.(const (fun trace_json metrics -> (trace_json, metrics)) $ trace_json_arg $ metrics_arg)

(* arm tracing before [f] runs (CQLOPT_TRACE=1 arms it at load time without
   either flag), then write what it recorded; [f]'s exit code is returned *)
let traced (trace_json, metrics) f =
  if trace_json <> None || metrics then Cql_obs.Obs.set_enabled true;
  let code = f () in
  (match trace_json with
  | None -> ()
  | Some "-" -> Cql_obs.Obs.write_ndjson stdout
  | Some path -> (
      match open_out path with
      | oc ->
          Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Cql_obs.Obs.write_ndjson oc)
      | exception Sys_error msg -> prerr_endline msg));
  if metrics then Format.eprintf "%a@?" Cql_obs.Obs.pp_summary ();
  code
