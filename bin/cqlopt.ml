(* cqlopt: command-line front end for the constraint-pushing optimizer.

   Subcommands:
     analyze  - infer predicate constraints and QRP constraints
     rewrite  - apply a transformation pipeline and print the program
     eval     - bottom-up evaluation of a program against an EDB file
     fuzz     - differential fuzzing of every pipeline against oracles
     client   - send one request to a running cqlserved daemon
     bench    - service benchmarks (bench serve drives a daemon under load) *)

open Cql_datalog
open Cql_core
open Cmdliner

let read_program path =
  try Ok (Parser.program_of_file path) with
  | Parser.Error msg -> Error (Printf.sprintf "%s: %s" path msg)
  | Sys_error msg -> Error msg

let read_file path =
  try
    let ic = open_in path in
    let n = in_channel_length ic in
    let src = really_input_string ic n in
    close_in ic;
    Ok src
  with Sys_error msg -> Error msg

(* a fact whose constraint is unsatisfiable in the current domain (e.g. one
   pinning a fractional value under --domain int) denotes the empty
   relation: drop it rather than crash *)
let fact_opt r =
  match Cql_eval.Fact.of_fact_rule r with
  | f -> Some f
  | exception Cql_eval.Fact.Unsat -> None

let read_edb = function
  | None -> Ok []
  | Some path -> (
      try
        let ic = open_in path in
        let n = in_channel_length ic in
        let src = really_input_string ic n in
        close_in ic;
        Ok (List.filter_map fact_opt (Parser.facts_of_string src))
      with
      | Parser.Error msg -> Error (Printf.sprintf "%s: %s" path msg)
      | Sys_error msg -> Error msg)

let program_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"PROGRAM" ~doc:"CQL program file")

let max_iters_arg =
  Arg.(value & opt int 50 & info [ "max-iters" ] ~docv:"N"
         ~doc:"Iteration budget for the constraint-generation fixpoints")

let solver_stats_arg =
  Arg.(value & flag & info [ "solver-stats" ]
         ~doc:"After the run, print decision-procedure call counts and \
               memoization cache hit rates to stderr")

let domain_conv =
  Arg.enum [ ("rat", Cql_constr.Cdomain.Q); ("int", Cql_constr.Cdomain.Z) ]

let domain_arg =
  Arg.(value & opt domain_conv Cql_constr.Cdomain.Q & info [ "domain" ] ~docv:"D"
         ~doc:"Constraint domain: rat (the paper's rational setting, the default) \
               or int (decide every constraint exactly over the integers: \
               per-atom tightening, Omega-test elimination, branch-and-bound \
               fallback)")

let apply_domain d = Cql_constr.Cdomain.set_default d

let print_solver_stats flag =
  if flag then
    Format.eprintf "%a@?" Cql_constr.Solver_stats.pp (Cql_constr.Solver_stats.snapshot ())

(* ----- tracing (lib/obs) ----- *)

let trace_json_arg =
  Arg.(value & opt (some string) None & info [ "trace-json" ] ~docv:"FILE"
         ~doc:"Enable phase tracing and, when the command finishes, write the \
               recorded span events as NDJSON (one JSON object per line) to \
               $(docv), or to stdout for '-'")

let metrics_arg =
  Arg.(value & flag & info [ "metrics" ]
         ~doc:"Enable phase tracing and print a per-phase timing summary plus \
               all nonzero counters to stderr when the command finishes")

(* arm tracing before the work runs; CQLOPT_TRACE=1 arms it at load time
   without either flag *)
let apply_tracing trace_json metrics =
  if trace_json <> None || metrics then Cql_obs.Obs.set_enabled true

let emit_tracing trace_json metrics =
  (match trace_json with
  | None -> ()
  | Some "-" -> Cql_obs.Obs.write_ndjson stdout
  | Some path -> (
      match open_out path with
      | oc -> Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Cql_obs.Obs.write_ndjson oc)
      | exception Sys_error msg -> prerr_endline msg));
  if metrics then Format.eprintf "%a@?" Cql_obs.Obs.pp_summary ()

(* ----- analyze ----- *)

let analyze_cmd =
  let run path max_iters =
    match read_program path with
    | Error msg ->
        prerr_endline msg;
        1
    | Ok p ->
        let pres = Pred_constraints.gen ~max_iters p in
        Printf.printf "Predicate constraints (converged=%b, %d iterations):\n"
          pres.Pred_constraints.converged pres.Pred_constraints.iterations;
        List.iter
          (fun (pred, c) -> Printf.printf "  %-20s %s\n" pred (Cql_constr.Cset.to_string c))
          pres.Pred_constraints.constraints;
        (match p.Program.query with
        | Some _ ->
            let p1 = Pred_constraints.propagate pres p in
            let qres = Qrp.gen ~max_iters p1 in
            Printf.printf "QRP constraints after pred propagation (converged=%b, %d iterations):\n"
              qres.Qrp.converged qres.Qrp.iterations;
            List.iter
              (fun (pred, c) -> Printf.printf "  %-20s %s\n" pred (Cql_constr.Cset.to_string c))
              qres.Qrp.constraints
        | None -> print_endline "No query predicate: skipping QRP constraints (#query p. sets one)");
        Printf.printf "Decidable class (Theorem 5.1): %b\n" (Decidable.in_class p);
        if Decidable.in_class p then
          Printf.printf "  iteration bound: %s\n"
            (Cql_num.Bigint.to_string (Decidable.iteration_bound p));
        0
  in
  let term = Term.(const run $ program_arg $ max_iters_arg) in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Infer minimum predicate constraints and QRP constraints for a program")
    term

(* ----- rewrite ----- *)

let parse_steps adornment constraint_magic s =
  let step_of = function
    | "pred" -> Ok Rewrite.Pred
    | "qrp" -> Ok Rewrite.Qrp
    | "mg" | "magic" -> Ok (Rewrite.Magic { adornment; constraint_magic })
    | "cmg" -> Ok (Rewrite.Magic { adornment; constraint_magic = true })
    | "mg-complete" -> Ok Rewrite.Magic_complete
    | other -> Error (Printf.sprintf "unknown step %S (use pred, qrp, mg, cmg, mg-complete)" other)
  in
  List.fold_left
    (fun acc name ->
      match (acc, step_of name) with
      | Ok steps, Ok s -> Ok (steps @ [ s ])
      | (Error _ as e), _ -> e
      | _, (Error _ as e) -> e)
    (Ok [])
    (String.split_on_char ',' s)

let rewrite_cmd =
  let run path domain steps adornment no_cmagic gmt optimal max_iters inline_seed simplify
      solver_stats trace_json metrics =
    apply_domain domain;
    apply_tracing trace_json metrics;
    let code =
    match read_program path with
    | Error msg ->
        prerr_endline msg;
        1
    | Ok p -> (
        let adornment =
          match (adornment, p.Program.query) with
          | Some a, _ -> a
          | None, Some q -> String.make (Program.arity p q) 'f'
          | None, None -> ""
        in
        let result =
          if gmt then
            try Ok (Gmt.pipeline ~query_adornment:adornment p)
            with Invalid_argument msg -> Error msg
          else if optimal then
            try Ok (fst (Rewrite.optimal ~max_iters ~adornment p))
            with Invalid_argument msg -> Error msg
          else
            match parse_steps adornment (not no_cmagic) steps with
            | Error msg -> Error msg
            | Ok steps -> (
                try Ok (fst (Rewrite.sequence ~max_iters steps p))
                with Invalid_argument msg -> Error msg)
        in
        match result with
        | Error msg ->
            prerr_endline msg;
            1
        | Ok p' ->
            let p' = if inline_seed then Magic.inline_seed p' else p' in
            let p' = if simplify then Simplify.program p' else p' in
            print_endline (Program.to_string (Program.prettify p'));
            0)
    in
    print_solver_stats solver_stats;
    emit_tracing trace_json metrics;
    code
  in
  let steps =
    Arg.(value & opt string "pred,qrp" & info [ "steps" ] ~docv:"STEPS"
           ~doc:"Comma-separated pipeline: pred, qrp, mg, cmg, mg-complete")
  in
  let adornment =
    Arg.(value & opt (some string) None & info [ "adornment" ] ~docv:"AD"
           ~doc:"Query adornment for magic steps (default: all-free)")
  in
  let no_cmagic =
    Arg.(value & flag & info [ "no-constraint-magic" ]
           ~doc:"Drop constraints from magic rules (plain magic, rule mr1' of Section 1)")
  in
  let gmt = Arg.(value & flag & info [ "gmt" ] ~doc:"Run the GMT pipeline of Figure 2") in
  let optimal =
    Arg.(value & flag & info [ "optimal" ]
           ~doc:"Run the optimal sequence pred,qrp,mg of Theorem 7.10")
  in
  let inline_seed =
    Arg.(value & flag & info [ "inline-seed" ] ~doc:"Inline the all-free magic seed fact")
  in
  let simplify =
    Arg.(value & flag & info [ "simplify" ]
           ~doc:"Post-pass: drop redundant constraint atoms and subsumed rules")
  in
  let term =
    Term.(const run $ program_arg $ domain_arg $ steps $ adornment $ no_cmagic $ gmt $ optimal
          $ max_iters_arg $ inline_seed $ simplify $ solver_stats_arg
          $ trace_json_arg $ metrics_arg)
  in
  Cmd.v (Cmd.info "rewrite" ~doc:"Rewrite a program by pushing constraint selections") term

(* ----- eval ----- *)

let eval_cmd =
  let run path edb_path domain max_iterations max_derivations traced naive explain stratified
      solver_stats trace_json metrics =
    apply_domain domain;
    apply_tracing trace_json metrics;
    let code =
    match read_program path with
    | Error msg ->
        prerr_endline msg;
        1
    | Ok p -> (
        match read_edb edb_path with
        | Error msg ->
            prerr_endline msg;
            1
        | Ok edb -> (
            let max_iterations = if max_iterations = 0 then None else Some max_iterations in
            let max_derivations = if max_derivations = 0 then None else Some max_derivations in
            match
              if naive then Cql_eval.Engine.run_naive ?max_iterations ?max_derivations p ~edb
              else if stratified then
                Cql_eval.Engine.run_stratified ?max_iterations ?max_derivations p ~edb
              else Cql_eval.Engine.run ?max_iterations ?max_derivations ~traced p ~edb
            with
            | exception Cql_eval.Engine.Arity_mismatch msg ->
                prerr_endline ("edb: " ^ msg);
                1
            | res ->
                if traced then
                  List.iter
                    (fun (t : Cql_eval.Engine.trace_entry) ->
                      Printf.printf "iter %-3d %-10s %s%s\n" t.Cql_eval.Engine.iteration
                        t.Cql_eval.Engine.rule_label
                        (Cql_eval.Fact.to_string t.Cql_eval.Engine.fact)
                        (if t.Cql_eval.Engine.subsumed then "   [subsumed]" else ""))
                    (Cql_eval.Engine.trace res);
                let s = Cql_eval.Engine.stats res in
                Printf.printf
                  "iterations=%d derivations=%d facts=%d fixpoint=%b ground_only=%b\n"
                  s.Cql_eval.Engine.iterations s.Cql_eval.Engine.derivations
                  (Cql_eval.Engine.total_facts res) s.Cql_eval.Engine.reached_fixpoint
                  (Cql_eval.Engine.all_ground res);
                (match p.Program.query with
                | Some q ->
                    Printf.printf "answers (%s):\n" q;
                    List.iter
                      (fun f ->
                        Printf.printf "  %s\n" (Cql_eval.Fact.to_string f);
                        if explain then
                          match Cql_eval.Explain.tree res f with
                          | Some t -> print_string (Cql_eval.Explain.to_string t)
                          | None -> ())
                      (* sorted (predicate, then canonical fact order) so output
                         diffs cleanly across runs *)
                      (List.sort Cql_eval.Fact.compare (Cql_eval.Engine.facts_of res q))
                | None -> ());
                0))
    in
    print_solver_stats solver_stats;
    emit_tracing trace_json metrics;
    code
  in
  let edb =
    Arg.(value & opt (some file) None & info [ "edb" ] ~docv:"FILE" ~doc:"EDB facts file")
  in
  let max_iterations =
    Arg.(value & opt int 0 & info [ "max-iterations" ] ~docv:"N"
           ~doc:"Stop after N iterations (0 = unlimited)")
  in
  let max_derivations =
    Arg.(value & opt int 0 & info [ "max-derivations" ] ~docv:"N"
           ~doc:"Stop after N derivations (0 = unlimited)")
  in
  let traced = Arg.(value & flag & info [ "trace" ] ~doc:"Print every derivation") in
  let naive = Arg.(value & flag & info [ "naive" ] ~doc:"Naive instead of semi-naive") in
  let explain =
    Arg.(value & flag & info [ "explain" ] ~doc:"Print a derivation tree for each answer")
  in
  let stratified =
    Arg.(value & flag & info [ "stratified" ] ~doc:"Evaluate SCC by SCC (callees first)")
  in
  let term =
    Term.(const run $ program_arg $ edb $ domain_arg $ max_iterations $ max_derivations
          $ traced $ naive $ explain $ stratified $ solver_stats_arg
          $ trace_json_arg $ metrics_arg)
  in
  Cmd.v (Cmd.info "eval" ~doc:"Bottom-up evaluation of a CQL program") term

(* ----- fuzz ----- *)

let fuzz_cmd =
  let module H = Cql_gen.Harness in
  let module G = Cql_gen.Generate in
  let run seed count mode domain inject_bug replay out solver_stats trace_json metrics =
    apply_domain domain;
    apply_tracing trace_json metrics;
    let code =
    match replay with
    | Some path -> (
        match read_file path with
        | Error msg ->
            prerr_endline msg;
            1
        | Ok src -> (
            match H.parse_counterexample src with
            | exception Parser.Error msg ->
                Printf.eprintf "%s: %s\n" path msg;
                1
            | p, edb, updates -> (
                let result =
                  if updates = [] then
                    (* --mode int replays the case under ℤ; other modes are
                       inferred from the program *)
                    H.replay ?mode:(if mode = "int" then Some G.Int else None) p edb
                  else H.replay_update p edb updates
                in
                match result with
                | None ->
                    print_endline "replay: all oracles passed";
                    0
                | Some f ->
                    Printf.printf "replay: FAILURE oracle=%s pipeline=%s: %s\n"
                      (H.oracle_name f.H.oracle) f.H.pipeline f.H.detail;
                    1)))
    | None -> (
        let report (s : H.summary) =
          Format.printf "%a" H.pp_summary s;
          match s.H.failure with
          | None ->
              if inject_bug then begin
                print_endline "injected bug was NOT caught";
                1
              end
              else 0
          | Some f ->
              let doc = H.counterexample_to_string s f in
              let oc = open_out out in
              output_string oc doc;
              close_out oc;
              Printf.printf "counterexample (%d rules, %d facts, %d updates) written to %s\n"
                (List.length f.H.program.Program.rules)
                (List.length f.H.edb) (List.length f.H.updates) out;
              if inject_bug then begin
                print_endline "injected bug caught as intended";
                0
              end
              else 1
        in
        match mode with
        | "update" ->
            if inject_bug then begin
              prerr_endline "--inject-bug targets the rewrite oracles, not --mode update";
              1
            end
            else report (H.run_update ~seed ~count ())
        | _ -> (
            match G.mode_of_string mode with
            | None ->
                Printf.eprintf "unknown mode %S (use decidable, linear, int or update)\n" mode;
                1
            | Some m ->
                let config = G.default m in
                let tamper = if inject_bug then Some H.drop_disjuncts else None in
                report (H.run ?tamper ~config ~seed ~count ())))
    in
    print_solver_stats solver_stats;
    emit_tracing trace_json metrics;
    code
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed") in
  let count =
    Arg.(value & opt int 200 & info [ "count" ] ~docv:"N" ~doc:"Number of cases to generate")
  in
  let mode =
    Arg.(value & opt string "decidable" & info [ "mode" ] ~docv:"MODE"
           ~doc:"Constraint mode: decidable (Theorem 5.1 class), linear (full fragment), \
                 int (integer domain: every oracle under Z plus the rational-relaxation \
                 coverage oracle) or update (incremental view maintenance vs from-scratch \
                 re-evaluation)")
  in
  let inject_bug =
    Arg.(value & flag & info [ "inject-bug" ]
           ~doc:"Demo: run an extra pipeline with a deliberately broken constraint \
                 propagation (folding with constraints the definitions no longer match); \
                 exits 0 iff the oracles catch it")
  in
  let replay =
    Arg.(value & opt (some file) None & info [ "replay" ] ~docv:"FILE"
           ~doc:"Re-check a counterexample file instead of generating cases")
  in
  let out =
    Arg.(value & opt string "fuzz_counterexample.cql" & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Where to write the shrunk counterexample on failure")
  in
  let term =
    Term.(const run $ seed $ count $ mode $ domain_arg $ inject_bug $ replay $ out
          $ solver_stats_arg $ trace_json_arg $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing: generated programs through every pipeline and oracle")
    term

(* ----- client (cqlserved) ----- *)

let socket_arg =
  Arg.(value & opt string "cqlserved.sock" & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket of the cqlserved daemon")

let client_cmd =
  let module S = Cql_serve in
  let run socket path edb_path tenant pipeline domain max_iterations max_derivations op raw =
    let fail msg =
      prerr_endline msg;
      1
    in
    let print_response j =
      if raw then print_endline (S.Json.to_string j)
      else if S.Client.is_ok j then begin
        (match Option.bind (S.Json.member "cache" j) S.Json.to_str with
        | Some c -> Printf.eprintf "cache=%s\n%!" c
        | None -> ());
        List.iter print_endline (S.Client.answers j)
      end
      else
        Printf.eprintf "error (%s): %s\n"
          (Option.value (S.Client.error_kind j) ~default:"?")
          (Option.value (S.Client.error_message j) ~default:"");
      if S.Client.is_ok j then 0 else 1
    in
    match S.Client.connect socket with
    | Error msg -> fail msg
    | Ok client ->
        let code =
          Fun.protect
            ~finally:(fun () -> S.Client.close client)
            (fun () ->
              let response =
                match op with
                | "ping" -> S.Client.ping client
                | "stats" -> S.Client.stats client
                | "eval" -> (
                    match path with
                    | None -> Error "eval needs a PROGRAM file argument"
                    | Some path -> (
                        match read_file path with
                        | Error msg -> Error msg
                        | Ok program -> (
                            let edb =
                              match edb_path with None -> Ok "" | Some p -> read_file p
                            in
                            match edb with
                            | Error msg -> Error msg
                            | Ok edb ->
                                let opt n = if n = 0 then None else Some n in
                                S.Client.eval client ~tenant ~edb ~pipeline ~domain
                                  ?max_iterations:(opt max_iterations)
                                  ?max_derivations:(opt max_derivations) ~program ())))
                | other -> Error (Printf.sprintf "unknown op %S (use eval, ping, stats)" other)
              in
              match response with Error msg -> fail msg | Ok j -> print_response j)
        in
        code
  in
  let program =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"PROGRAM"
           ~doc:"CQL program file to evaluate (required for --op eval)")
  in
  let edb =
    Arg.(value & opt (some file) None & info [ "edb" ] ~docv:"FILE" ~doc:"EDB facts file")
  in
  let tenant =
    Arg.(value & opt string "cli" & info [ "tenant" ] ~docv:"NAME"
           ~doc:"Tenant name for admission control and per-tenant counters")
  in
  let pipeline =
    Arg.(value & opt string "pred,qrp" & info [ "pipeline" ] ~docv:"P"
           ~doc:"Server-side rewrite pipeline: none, pred,qrp or optimal")
  in
  let domain =
    Arg.(value & opt domain_conv Cql_constr.Cdomain.Q & info [ "domain" ] ~docv:"D"
           ~doc:"Constraint domain to request: rat (default) or int")
  in
  let max_iterations =
    Arg.(value & opt int 0 & info [ "max-iterations" ] ~docv:"N"
           ~doc:"Iteration budget to request (0 = server default)")
  in
  let max_derivations =
    Arg.(value & opt int 0 & info [ "max-derivations" ] ~docv:"N"
           ~doc:"Derivation budget to request (0 = server default)")
  in
  let op =
    Arg.(value & opt string "eval" & info [ "op" ] ~docv:"OP"
           ~doc:"Request to send: eval, ping or stats")
  in
  let raw =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the raw JSON response instead of answers")
  in
  let term =
    Term.(const run $ socket_arg $ program $ edb $ tenant $ pipeline $ domain
          $ max_iterations $ max_derivations $ op $ raw)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one request to a running cqlserved daemon and print the answers")
    term

(* ----- bench serve ----- *)

(* merge [experiments.<key>] into an existing BENCH_results.json (or start a
   fresh document), leaving every other experiment in place *)
let merge_bench_file path key payload =
  let module J = Cql_serve.Json in
  let upsert k v kvs =
    if List.mem_assoc k kvs then
      List.map (fun (k', v') -> if String.equal k' k then (k, v) else (k', v')) kvs
    else kvs @ [ (k, v) ]
  in
  let existing =
    if Sys.file_exists path then
      match read_file path with
      | Ok src -> ( match J.parse src with Ok (J.Obj kvs) -> kvs | _ -> [])
      | Error _ -> []
    else []
  in
  let existing =
    if existing = [] then [ ("schema", J.Str "cqlopt-bench-1") ] else existing
  in
  let experiments =
    match List.assoc_opt "experiments" existing with Some (J.Obj kvs) -> kvs | _ -> []
  in
  let doc = upsert "experiments" (J.Obj (upsert key payload experiments)) existing in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (J.to_string (J.Obj doc));
      output_char oc '\n')

let bench_serve_cmd =
  let module S = Cql_serve in
  let run socket clients requests warmup workers daemon daemon_trace out =
    let socket =
      if socket = "" then
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "cqlserved-bench-%d.sock" (Unix.getpid ()))
      else socket
    in
    (* the daemon: an explicit path, '-' for in-process, or (default) the
       cqlserved built next to this executable, else in-process *)
    let exe_dir = Filename.dirname Sys.executable_name in
    let daemon_path =
      match daemon with
      | "-" -> None
      | "" ->
          List.find_opt Sys.file_exists
            [ Filename.concat exe_dir "cqlserved.exe"; Filename.concat exe_dir "cqlserved" ]
      | path -> Some path
    in
    let daemon_desc, stop_daemon =
      match daemon_path with
      | Some path ->
          let argv = [ path; "--socket"; socket; "--workers"; string_of_int workers ] in
          let argv =
            match daemon_trace with
            | None -> argv
            | Some f -> argv @ [ "--trace-json"; f ]
          in
          let pid =
            Unix.create_process path (Array.of_list argv) Unix.stdin Unix.stderr Unix.stderr
          in
          ( Printf.sprintf "spawned %s (pid %d)" path pid,
            fun () ->
              (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
              match Unix.waitpid [] pid with
              | _, Unix.WEXITED 0 -> true
              | _ -> false )
      | None ->
          if daemon_trace <> None then Cql_obs.Obs.set_enabled true;
          let t = S.Server.start { (S.Server.default_config ~socket_path:socket) with workers } in
          ( "in-process",
            fun () ->
              S.Server.stop t;
              S.Server.wait t;
              (match daemon_trace with
              | None -> ()
              | Some f ->
                  let oc = open_out f in
                  Fun.protect
                    ~finally:(fun () -> close_out oc)
                    (fun () -> Cql_obs.Obs.write_ndjson oc));
              true )
    in
    Printf.eprintf "bench serve: daemon %s, socket %s\n%!" daemon_desc socket;
    match S.Loadgen.run ~socket ~clients ~requests_per_client:requests ~warmup () with
    | Error msg ->
        ignore (stop_daemon ());
        prerr_endline ("bench serve: " ^ msg);
        1
    | Ok r ->
        let clean = stop_daemon () in
        Printf.printf
          "clients=%d requests=%d ok=%d errors=%d cache_hits=%d answers_match=%b\n"
          r.S.Loadgen.clients r.S.Loadgen.total_requests r.S.Loadgen.ok r.S.Loadgen.errors
          r.S.Loadgen.cache_hits r.S.Loadgen.answers_match;
        Printf.printf "p50=%.2fms p95=%.2fms p99=%.2fms mean=%.2fms max=%.2fms\n"
          r.S.Loadgen.p50_ms r.S.Loadgen.p95_ms r.S.Loadgen.p99_ms r.S.Loadgen.mean_ms
          r.S.Loadgen.max_ms;
        if r.S.Loadgen.warmup_requests > 0 then
          Printf.printf "warmup: requests=%d errors=%d p50=%.2fms max=%.2fms (excluded above)\n"
            r.S.Loadgen.warmup_requests r.S.Loadgen.warmup_errors r.S.Loadgen.warmup_p50_ms
            r.S.Loadgen.warmup_max_ms;
        Printf.printf "throughput=%.1f req/s over %.2fs; clean_daemon_exit=%b\n"
          r.S.Loadgen.throughput_rps r.S.Loadgen.wall_s clean;
        let payload =
          match S.Loadgen.to_json r with
          | S.Json.Obj kvs ->
              S.Json.Obj
                (kvs
                @ [
                    ( "daemon",
                      S.Json.Str (if daemon_path = None then "in-process" else "spawned") );
                    ("clean_daemon_exit", S.Json.Bool clean);
                  ])
          | j -> j
        in
        merge_bench_file out "serve" payload;
        Printf.printf "merged experiments.serve into %s\n" out;
        if r.S.Loadgen.errors = 0 && r.S.Loadgen.answers_match && clean then 0 else 1
  in
  let socket =
    Arg.(value & opt string "" & info [ "socket" ] ~docv:"PATH"
           ~doc:"Socket path for the run (default: a fresh path under \\$TMPDIR)")
  in
  let clients =
    Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client domains")
  in
  let requests =
    Arg.(value & opt int 25 & info [ "requests" ] ~docv:"M" ~doc:"Requests per client")
  in
  let warmup =
    Arg.(value & opt int 0 & info [ "warmup" ] ~docv:"N"
           ~doc:"Warmup requests per client before measurement: absorbs the cold \
                 plan-compile outliers, which are reported separately from the \
                 steady-state percentiles")
  in
  let workers =
    Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N" ~doc:"Daemon worker domains")
  in
  let daemon =
    Arg.(value & opt string "" & info [ "daemon" ] ~docv:"PATH"
           ~doc:"cqlserved executable to spawn (default: the one next to cqlopt; \
                 '-' = run the server in-process)")
  in
  let daemon_trace =
    Arg.(value & opt (some string) None & info [ "daemon-trace" ] ~docv:"FILE"
           ~doc:"Have the daemon write its per-request NDJSON trace to $(docv) on exit")
  in
  let out =
    Arg.(value & opt string "BENCH_results.json" & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Benchmark results file to merge experiments.serve into")
  in
  let term =
    Term.(const run $ socket $ clients $ requests $ warmup $ workers $ daemon $ daemon_trace
          $ out)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Load-test cqlserved: N clients x M requests, latency percentiles and throughput")
    term

(* ----- bench incremental ----- *)

(* Example 1.1's flights program over a generated acyclic chain network: a
   single-leg retraction (and the re-insertion that undoes it) maintained
   incrementally, timed against re-evaluating the whole fixpoint from
   scratch on the same EDB. *)
let bench_incremental_cmd =
  let module J = Cql_serve.Json in
  let module Engine = Cql_eval.Engine in
  let module Fact = Cql_eval.Fact in
  let flights_src =
    "r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.\n\
     r2: cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.\n\
     r3: flight(Src, Dst, Time, Cost) :- singleleg(Src, Dst, Time, Cost), Cost > 0, Time > 0.\n\
     r4: flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2),\n\
    \     T = T1 + T2 + 30, C = C1 + C2.\n\
     #query cheaporshort.\n"
  in
  let chain_edb legs =
    List.init legs (fun i ->
        Printf.sprintf "singleleg(city%d, city%d, %d, %d)." i (i + 1)
          (20 + ((i * 37) mod 120))
          (15 + ((i * 53) mod 140)))
    |> String.concat "\n"
  in
  let run legs updates out =
    let max_iterations = 1_000 and max_derivations = 5_000_000 in
    let p = Parser.program_of_string flights_src in
    let edb = List.map Fact.of_fact_rule (Parser.facts_of_string (chain_edb legs)) in
    let time f =
      let t0 = Cql_obs.Obs.monotonic_ns () in
      let r = f () in
      (r, Int64.to_float (Int64.sub (Cql_obs.Obs.monotonic_ns ()) t0) /. 1e6)
    in
    let scratch_answers edb =
      let res = Engine.run ~max_iterations ~max_derivations p ~edb in
      if not (Engine.stats res).Engine.reached_fixpoint then
        failwith "bench incremental: from-scratch run truncated (raise the budgets)";
      List.sort Fact.compare (Engine.answers res p)
    in
    let (vw, ms0), materialize_ms =
      time (fun () -> Engine.materialize ~max_iterations ~max_derivations p ~edb)
    in
    Fun.protect ~finally:(fun () -> Engine.close_view vw) @@ fun () ->
    if not ms0.Engine.m_complete then failwith "bench incremental: materialization truncated";
    let maintain_ms = ref [] and scratch_ms = ref [] in
    let answers_match = ref true in
    let check_step () =
      let answers, s_ms = time (fun () -> scratch_answers (Engine.view_edb vw)) in
      scratch_ms := s_ms :: !scratch_ms;
      if answers <> Engine.view_answers vw then answers_match := false
    in
    let leg_facts = Array.of_list edb in
    for step = 0 to updates - 1 do
      (* spread the retractions over the chain; middle legs delete the most *)
      let victim = leg_facts.(((step * 7) + 3) mod legs) in
      let ms_r, r_ms = time (fun () -> Engine.retract vw [ victim ]) in
      maintain_ms := r_ms :: !maintain_ms;
      if not ms_r.Engine.m_complete then failwith "bench incremental: retract truncated";
      check_step ();
      let ms_i, i_ms = time (fun () -> Engine.insert vw [ victim ]) in
      maintain_ms := i_ms :: !maintain_ms;
      if not ms_i.Engine.m_complete then failwith "bench incremental: insert truncated";
      check_step ()
    done;
    let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l)) in
    let p50 l =
      match List.sort compare l with [] -> 0.0 | s -> List.nth s (List.length s / 2)
    in
    let maintain = !maintain_ms and scratch = !scratch_ms in
    let speedup = if mean maintain > 0.0 then mean scratch /. mean maintain else 0.0 in
    let faster = mean maintain < mean scratch in
    Printf.printf "legs=%d updates=%d facts=%d answers_match=%b\n" legs updates
      (Engine.view_total vw) !answers_match;
    Printf.printf "materialize=%.2fms maintain: mean=%.3fms p50=%.3fms (%d ops)\n"
      materialize_ms (mean maintain) (p50 maintain) (List.length maintain);
    Printf.printf "from-scratch: mean=%.3fms p50=%.3fms; speedup=%.1fx faster=%b\n"
      (mean scratch) (p50 scratch) speedup faster;
    let payload =
      J.Obj
        [
          ("program", J.Str "flights (Example 1.1)");
          ("network", J.Str (Printf.sprintf "acyclic chain, %d legs" legs));
          ("updates", J.Int (List.length maintain));
          ("facts", J.Int (Engine.view_total vw));
          ("materialize_ms", J.Float materialize_ms);
          ("maintain_mean_ms", J.Float (mean maintain));
          ("maintain_p50_ms", J.Float (p50 maintain));
          ("scratch_mean_ms", J.Float (mean scratch));
          ("scratch_p50_ms", J.Float (p50 scratch));
          ("speedup", J.Float speedup);
          ("maintenance_faster", J.Bool faster);
          ("answers_match", J.Bool !answers_match);
        ]
    in
    merge_bench_file out "incremental" payload;
    Printf.printf "merged experiments.incremental into %s\n" out;
    if !answers_match && faster then 0 else 1
  in
  let legs =
    Arg.(value & opt int 48 & info [ "legs" ] ~docv:"N"
           ~doc:"Single-leg flights in the generated chain network")
  in
  let updates =
    Arg.(value & opt int 12 & info [ "updates" ] ~docv:"K"
           ~doc:"Retract/re-insert cycles (each timed against a from-scratch run)")
  in
  let out =
    Arg.(value & opt string "BENCH_results.json" & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Benchmark results file to merge experiments.incremental into")
  in
  let term = Term.(const run $ legs $ updates $ out) in
  Cmd.v
    (Cmd.info "incremental"
       ~doc:"Update-stream benchmark: incremental view maintenance vs from-scratch \
             re-evaluation on the flights program")
    term

(* ----- bench int ----- *)

(* Two workloads whose constraints sit on the ℚ/ℤ boundary: meeting-slot
   scheduling (strict windows plus a scaled duration bound, 2E - 2S >= 3,
   that tightens to E - S >= 2 over the integers) and a flights variant
   with a divisibility-constrained voucher (3V in [10, 14] pins V = 4 over
   ℤ).  The integer-domain answers — of both the original program and its
   pred,qrp rewrite — are verified point-by-point against brute-force
   enumeration of the small integer grid; the rational run of the same
   workload provides the timing baseline. *)
let bench_int_cmd =
  let module J = Cql_serve.Json in
  let module Engine = Cql_eval.Engine in
  let module Fact = Cql_eval.Fact in
  let module Cdomain = Cql_constr.Cdomain in
  let module Stats = Cql_constr.Solver_stats in
  let module T = Cql_datalog.Term in
  let scheduling_src =
    "r1: slot(P1, P2, S, E) :- avail(P1, S, E), avail(P2, S, E).\n\
     r2: avail(P, S, E) :- calendar(P, LO, HI), S >= LO, E <= HI, S < E.\n\
     r3: good(P1, P2, S, E) :- slot(P1, P2, S, E), 2*E - 2*S >= 3, S <= 12.\n\
     #query good.\n"
  in
  let calendar = [ ("alice", 9, 12); ("alice", 14, 18); ("bob", 10, 16); ("carol", 8, 10) ] in
  let scheduling_edb =
    String.concat "\n"
      (List.map (fun (p, lo, hi) -> Printf.sprintf "calendar(%s, %d, %d)." p lo hi) calendar)
  in
  let scheduling_points =
    let persons = [ "alice"; "bob"; "carol" ] in
    let avail p s e =
      List.exists (fun (p', lo, hi) -> p' = p && s >= lo && e <= hi && s < e) calendar
    in
    List.concat_map
      (fun p1 ->
        List.concat_map
          (fun p2 ->
            List.concat_map
              (fun s ->
                List.map
                  (fun e ->
                    let expected =
                      avail p1 s e && avail p2 s e && (2 * e) - (2 * s) >= 3 && s <= 12
                    in
                    ( [ T.Sym p1; T.Sym p2; T.Num (Cql_num.Rat.of_int s);
                        T.Num (Cql_num.Rat.of_int e) ],
                      expected ))
                  (List.init 11 (fun i -> 8 + i)))
              (List.init 11 (fun i -> 8 + i)))
          persons)
      persons
  in
  let flights_src =
    "r1: reach(S, D, C) :- leg(S, D, C).\n\
     r2: reach(S, D, C) :- reach(S, M, C1), leg(M, D, C2), C = C1 + C2.\n\
     r3: voucher(V) :- 3*V >= 10, 3*V <= 14.\n\
     r4: deal(S, D, C, V) :- reach(S, D, C), voucher(V), C <= 5*V.\n\
     #query deal.\n"
  in
  let leg_costs = [ 7; 6; 9; 8; 5 ] in
  let city i = Printf.sprintf "c%d" i in
  let flights_edb =
    String.concat "\n"
      (List.mapi (fun i c -> Printf.sprintf "leg(%s, %s, %d)." (city i) (city (i + 1)) c)
         leg_costs)
  in
  let flights_points =
    let n = List.length leg_costs in
    let cost i j =
      (* contiguous chain: the only reach(ci, cj) cost is the segment sum *)
      List.fold_left ( + ) 0 (List.filteri (fun k _ -> k >= i && k < j) leg_costs)
    in
    let total = List.fold_left ( + ) 0 leg_costs in
    List.concat_map
      (fun i ->
        List.concat_map
          (fun j ->
            if j <= i then []
            else
              List.concat_map
                (fun c ->
                  List.map
                    (fun v ->
                      let expected =
                        c = cost i j && (3 * v) >= 10 && 3 * v <= 14 && c <= 5 * v
                      in
                      ( [ T.Sym (city i); T.Sym (city j);
                          T.Num (Cql_num.Rat.of_int c); T.Num (Cql_num.Rat.of_int v) ],
                        expected ))
                    (List.init 7 (fun v -> v)))
                (List.init (total + 2) (fun c -> c)))
          (List.init (n + 1) (fun j -> j)))
      (List.init (n + 1) (fun i -> i))
  in
  let run out =
    let time f =
      let t0 = Cql_obs.Obs.monotonic_ns () in
      let r = f () in
      (r, Int64.to_float (Int64.sub (Cql_obs.Obs.monotonic_ns ()) t0) /. 1e6)
    in
    let neutral f = Fact.make "x" f.Fact.args (Fact.cstr f) in
    let run_workload (name, src, edb_src, points) =
      let p = Parser.program_of_string src in
      let edb = List.filter_map fact_opt (Parser.facts_of_string edb_src) in
      let arity =
        match p.Program.query with Some q -> Program.arity p q | None -> assert false
      in
      let run_domain d =
        Cdomain.with_domain d @@ fun () ->
        Cql_constr.Memo.clear_all ();
        let p', rewrite_ms =
          time (fun () -> fst (Rewrite.sequence ~max_iters:50 [ Rewrite.Pred; Rewrite.Qrp ] p))
        in
        let res, eval_ms = time (fun () -> Engine.run p ~edb) in
        let res', eval_rw_ms = time (fun () -> Engine.run p' ~edb) in
        let answers r pr = List.sort Fact.compare (Engine.answers r pr) in
        (answers res p, answers res' p', rewrite_ms, eval_ms, eval_rw_ms,
         Engine.total_facts res')
      in
      let qa, qa_rw, q_rw_ms, q_ev_ms, q_evrw_ms, q_facts = run_domain Cdomain.Q in
      Stats.reset ();
      let za, za_rw, z_rw_ms, z_ev_ms, z_evrw_ms, z_facts = run_domain Cdomain.Z in
      let st = Stats.snapshot () in
      (* brute-force verification: membership of every integer grid point in
         the ℤ answers — original and rewritten — must match the enumerated
         expectation exactly (both verdict directions) *)
      let check answers =
        Cdomain.with_domain Cdomain.Z @@ fun () ->
        let nanswers =
          List.filter_map
            (fun f -> if Fact.arity f = arity then Some (neutral f) else None)
            answers
        in
        List.filter
          (fun (args, expected) ->
            let g = Fact.ground "x" args in
            List.exists (fun f -> Fact.subsumes f g) nanswers <> expected)
          points
      in
      let bad = check za and bad_rw = check za_rw in
      let ok = bad = [] && bad_rw = [] in
      Printf.printf
        "%s: grid=%d expected=%d bruteforce_match=%b (orig bad=%d, rewritten bad=%d)\n" name
        (List.length points)
        (List.length (List.filter snd points))
        ok (List.length bad) (List.length bad_rw);
      Printf.printf
        "  rat: rewrite=%.2fms eval=%.2fms eval(rw)=%.2fms answers=%d facts=%d\n" q_rw_ms
        q_ev_ms q_evrw_ms (List.length qa) q_facts;
      Printf.printf
        "  int: rewrite=%.2fms eval=%.2fms eval(rw)=%.2fms answers=%d facts=%d\n" z_rw_ms
        z_ev_ms z_evrw_ms (List.length za) z_facts;
      ignore qa_rw;
      let payload =
        J.Obj
          [
            ("grid_points", J.Int (List.length points));
            ("expected_points", J.Int (List.length (List.filter snd points)));
            ("bruteforce_match", J.Bool ok);
            ( "rat",
              J.Obj
                [
                  ("rewrite_ms", J.Float q_rw_ms);
                  ("eval_ms", J.Float q_ev_ms);
                  ("eval_rewritten_ms", J.Float q_evrw_ms);
                  ("answers", J.Int (List.length qa));
                  ("facts", J.Int q_facts);
                ] );
            ( "int",
              J.Obj
                [
                  ("rewrite_ms", J.Float z_rw_ms);
                  ("eval_ms", J.Float z_ev_ms);
                  ("eval_rewritten_ms", J.Float z_evrw_ms);
                  ("answers", J.Int (List.length za));
                  ("facts", J.Int z_facts);
                  ("sat_checks", J.Int st.Stats.int_sat_checks);
                  ("tightened_atoms", J.Int st.Stats.int_tightened_atoms);
                  ("omega_eliminations", J.Int st.Stats.int_omega_eliminations);
                  ("splinters", J.Int st.Stats.int_splinters);
                  ("bb_fallbacks", J.Int st.Stats.int_bb_fallbacks);
                  ("bb_nodes", J.Int st.Stats.int_bb_nodes);
                ] );
          ]
      in
      (ok, payload)
    in
    let sched_ok, sched = run_workload ("scheduling", scheduling_src, scheduling_edb,
                                        scheduling_points) in
    let fl_ok, fl =
      run_workload ("integer-flights", flights_src, flights_edb, flights_points)
    in
    merge_bench_file out "int"
      (J.Obj [ ("scheduling", sched); ("integer_flights", fl) ]);
    Printf.printf "merged experiments.int into %s\n" out;
    if sched_ok && fl_ok then 0 else 1
  in
  let out =
    Arg.(value & opt string "BENCH_results.json" & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Benchmark results file to merge experiments.int into")
  in
  let term = Term.(const run $ out) in
  Cmd.v
    (Cmd.info "int"
       ~doc:"Integer-domain benchmark: scheduling and flights workloads under --domain int, \
             verified against brute-force small-domain enumeration")
    term

let bench_cmd =
  Cmd.group (Cmd.info "bench" ~doc:"Service benchmarks")
    [ bench_serve_cmd; bench_incremental_cmd; bench_int_cmd ]

let () =
  let doc = "Pushing constraint selections: CQL program optimizer (Srivastava & Ramakrishnan)" in
  let info = Cmd.info "cqlopt" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info [ analyze_cmd; rewrite_cmd; eval_cmd; fuzz_cmd; client_cmd; bench_cmd ]))
