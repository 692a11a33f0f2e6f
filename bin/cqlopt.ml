(* cqlopt: command-line front end for the constraint-pushing optimizer.

   Subcommands:
     analyze  - infer predicate constraints and QRP constraints
     rewrite  - apply a transformation pipeline and print the program
     eval     - bottom-up evaluation of a program against an EDB file
     fuzz     - differential fuzzing of every pipeline against oracles
     client   - send one request to a running cqlserved daemon *)

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

let read_edb = function
  | None -> Ok []
  | Some path -> (
      try
        let ic = open_in path in
        let n = in_channel_length ic in
        let src = really_input_string ic n in
        close_in ic;
        Ok (List.filter_map Cql_eval.Fact.of_fact_rule_opt (Parser.facts_of_string src))
      with
      | Parser.Error msg -> Error (Printf.sprintf "%s: %s" path msg)
      | Sys_error msg -> Error msg)

let program_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"PROGRAM" ~doc:"CQL program file")

let max_iters_arg =
  Arg.(value & opt int 50 & info [ "max-iters" ] ~docv:"N"
         ~doc:"Iteration budget for the constraint-generation fixpoints")

let domain_conv =
  Arg.enum [ ("rat", Cql_constr.Cdomain.Q); ("int", Cql_constr.Cdomain.Z) ]

let domain_arg =
  Arg.(value & opt domain_conv Cql_constr.Cdomain.Q & info [ "domain" ] ~docv:"D"
         ~doc:"Constraint domain: rat (the paper's rational setting, the default) \
               or int (decide every constraint exactly over the integers: \
               per-atom tightening, then Omega-test elimination)")

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
      tracing =
    Cql_constr.Cdomain.with_domain domain @@ fun () ->
    Tracing.traced tracing @@ fun () ->
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
          $ max_iters_arg $ inline_seed $ simplify $ Tracing.term)
  in
  Cmd.v (Cmd.info "rewrite" ~doc:"Rewrite a program by pushing constraint selections") term

(* ----- eval ----- *)

let eval_cmd =
  let run path edb_path domain max_iterations max_derivations traced explain tracing =
    Cql_constr.Cdomain.with_domain domain @@ fun () ->
    Tracing.traced tracing @@ fun () ->
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
            (* derivation trees are read from the trace *)
            match
              Cql_eval.Engine.run ?max_iterations ?max_derivations ~traced:(traced || explain) p
                ~edb
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
                      (Cql_eval.Engine.answers res p)
                | None -> ());
                0))
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
  let explain =
    Arg.(value & flag & info [ "explain" ] ~doc:"Print a derivation tree for each answer")
  in
  let term =
    Term.(const run $ program_arg $ edb $ domain_arg $ max_iterations $ max_derivations
          $ traced $ explain $ Tracing.term)
  in
  Cmd.v (Cmd.info "eval" ~doc:"Bottom-up evaluation of a CQL program") term

(* ----- fuzz ----- *)

let fuzz_cmd =
  let module H = Cql_gen.Harness in
  let module G = Cql_gen.Generate in
  let run seed count mode domain inject_bug replay out tracing =
    match G.mode_of_string mode with
    | None ->
        Printf.eprintf "unknown mode %S (use decidable, linear, int or update)\n" mode;
        1
    | Some mode -> (
        Cql_constr.Cdomain.with_domain domain @@ fun () ->
        Tracing.traced tracing @@ fun () ->
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
                    (* --mode int replays the case under ℤ; a case with
                       updates replays in update mode, any other mode is
                       inferred from the program *)
                    let mode = if mode = G.Int then Some mode else None in
                    match H.replay ?mode p edb updates with
                    | None ->
                        print_endline "replay: all oracles passed";
                        0
                    | Some f ->
                        Printf.printf "replay: FAILURE oracle=%s pipeline=%s: %s\n"
                          (H.oracle_name f.H.oracle) f.H.pipeline f.H.detail;
                        1)))
        | None -> (
            let tamper = if inject_bug then Some H.drop_disjuncts else None in
            let s = H.run ?tamper ~config:(G.default mode) ~seed ~count () in
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
                else 1))
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
                 exits 0 iff the oracles catch it.  Update mode runs no pipeline, so it \
                 never catches the bug")
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
          $ Tracing.term)
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

let () =
  let doc = "Pushing constraint selections: CQL program optimizer (Srivastava & Ramakrishnan)" in
  let info = Cmd.info "cqlopt" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info [ analyze_cmd; rewrite_cmd; eval_cmd; fuzz_cmd; client_cmd ]))
