(* cqlrepl: an interactive toplevel for CQL programs.

     $ dune exec bin/cqlrepl.exe [-- FILE...]
     cql> flight(madison, chicago, 50, 100).
     cql> cheap(S, D) :- flight(S, D, T, C), C <= 150.
     cql> ?- cheap(madison, D).
     cql> :rewrite
     cql> :help

   Clauses accumulate into the session program; queries evaluate against it
   with safety budgets (tune with :iterations / :derivations). *)

open Cql_datalog
open Cql_core

type state = {
  mutable program : Program.t;
  mutable explain : bool;
  mutable max_iterations : int;
  mutable max_derivations : int;
}

let initial_state () =
  { program = Program.make []; explain = false; max_iterations = 100; max_derivations = 100_000 }

let help_text =
  {|Commands:
  <rule>.               add a rule or fact to the session program
  ?- <body>.            evaluate a query against the session program
  :load FILE            add all clauses of FILE
  :list                 show the session program
  :analyze              infer predicate constraints (and QRP if #query set)
  :rewrite              run Constraint_rewrite and show the result
  :optimal              run the pred,qrp,mg pipeline and show the result
  :explain              toggle derivation trees on query answers
  :iterations N         set the evaluation iteration budget (current shown)
  :derivations N        set the evaluation derivation budget
  :clear                drop all session clauses
  :help                 this text
  :quit                 leave|}

let print_err msg = Printf.printf "error: %s\n%!" msg

let eval_query st (lits, cstr) =
  let p, _ = Program.with_query_rule st.program lits cstr in
  match Program.check p with
  | Error msg -> print_err msg
  | Ok () ->
      (* derivation trees are read from the trace *)
      let res =
        Cql_eval.Engine.run ~max_iterations:st.max_iterations
          ~max_derivations:st.max_derivations ~traced:st.explain p ~edb:[]
      in
      let answers = Cql_eval.Engine.answers res p in
      let stats = Cql_eval.Engine.stats res in
      if answers = [] then
        Printf.printf "no%s\n"
          (if stats.Cql_eval.Engine.reached_fixpoint then ""
           else "  (budget exhausted before fixpoint: answers may be incomplete)")
      else begin
        List.iter
          (fun f ->
            Printf.printf "  %s\n" (Cql_eval.Fact.to_string f);
            if st.explain then
              match Cql_eval.Explain.tree res f with
              | Some t -> print_string (Cql_eval.Explain.to_string t)
              | None -> ())
          answers;
        if not stats.Cql_eval.Engine.reached_fixpoint then
          print_endline "  (budget exhausted before fixpoint: answers may be incomplete)"
      end;
      Printf.printf "%% %d iterations, %d derivations, %d facts\n"
        stats.Cql_eval.Engine.iterations stats.Cql_eval.Engine.derivations
        (Cql_eval.Engine.total_facts res);
      Printf.printf
        "%% store: %d indexed probes (%d hits, %d facts skipped), %d subsumption checks avoided\n%!"
        stats.Cql_eval.Engine.index_probes stats.Cql_eval.Engine.index_hits
        stats.Cql_eval.Engine.facts_skipped stats.Cql_eval.Engine.subsumptions_avoided

(* an unlabelled bodyless clause is a database fact: labelled [edb], it
   explains as [cqlopt eval --explain] shows the facts of an --edb file *)
let edb_label (r : Rule.t) =
  if Rule.is_fact r && r.Rule.label = "" then Rule.relabel "edb" r else r

let add_source st src =
  match Parser.program_of_string src with
  | exception Parser.Error msg -> print_err msg
  | addition ->
      let merged =
        List.fold_left
          (fun p r -> Program.add_rule (edb_label r) p)
          st.program addition.Program.rules
      in
      let merged =
        match addition.Program.query with
        | Some q -> Program.set_query q merged
        | None -> merged
      in
      (match Program.check merged with
      | Ok () -> st.program <- merged
      | Error msg -> print_err msg)

let show_program st =
  if st.program.Program.rules = [] then print_endline "% empty program"
  else print_endline (Program.to_string (Program.prettify st.program))

let analyze st =
  let pres = Pred_constraints.gen st.program in
  Printf.printf "predicate constraints (converged=%b):\n" pres.Pred_constraints.converged;
  List.iter
    (fun (pred, c) -> Printf.printf "  %-16s %s\n" pred (Cql_constr.Cset.to_string c))
    pres.Pred_constraints.constraints;
  match st.program.Program.query with
  | None -> print_endline "% no #query set: skipping QRP constraints"
  | Some _ ->
      let p1 = Pred_constraints.propagate pres st.program in
      let qres = Qrp.gen p1 in
      Printf.printf "QRP constraints (converged=%b):\n" qres.Qrp.converged;
      List.iter
        (fun (pred, c) -> Printf.printf "  %-16s %s\n" pred (Cql_constr.Cset.to_string c))
        qres.Qrp.constraints

let rewrite_and_show st f =
  match st.program.Program.query with
  | None -> print_err "set a query predicate first (#query p.)"
  | Some _ -> (
      match f st.program with
      | exception Invalid_argument msg -> print_err msg
      | p' -> print_endline (Program.to_string (Program.prettify p')))

let load_file st path =
  match open_in path with
  | exception Sys_error msg -> print_err msg
  | ic ->
      let n = in_channel_length ic in
      let src = really_input_string ic n in
      close_in ic;
      add_source st src;
      Printf.printf "%% loaded %s\n%!" path

let handle_command st line =
  let parts = String.split_on_char ' ' (String.trim line) in
  match List.filter (fun s -> s <> "") parts with
  | [ ":quit" ] | [ ":q" ] -> raise Exit
  | [ ":help" ] -> print_endline help_text
  | [ ":list" ] -> show_program st
  | [ ":clear" ] ->
      st.program <- Program.make [];
      print_endline "% cleared"
  | [ ":analyze" ] -> analyze st
  | [ ":rewrite" ] -> rewrite_and_show st (fun p -> fst (Rewrite.constraint_rewrite p))
  | [ ":optimal" ] ->
      rewrite_and_show st (fun p ->
          let q = Option.get p.Program.query in
          let ad = String.make (Program.arity p q) 'f' in
          fst (Rewrite.optimal ~adornment:ad p))
  | [ ":explain" ] ->
      st.explain <- not st.explain;
      Printf.printf "%% explain %s\n" (if st.explain then "on" else "off")
  | [ ":iterations" ] -> Printf.printf "%% iteration budget: %d\n" st.max_iterations
  | [ ":iterations"; n ] -> (
      match int_of_string_opt n with
      | Some n when n > 0 -> st.max_iterations <- n
      | _ -> print_err "expected a positive integer")
  | [ ":derivations" ] -> Printf.printf "%% derivation budget: %d\n" st.max_derivations
  | [ ":derivations"; n ] -> (
      match int_of_string_opt n with
      | Some n when n > 0 -> st.max_derivations <- n
      | _ -> print_err "expected a positive integer")
  | [ ":load"; path ] -> load_file st path
  | cmd :: _ -> print_err (Printf.sprintf "unknown command %s (:help for help)" cmd)
  | [] -> ()

(* queries need the parser's body grammar; reuse it by parsing the query as
   a one-clause program against a dummy context *)
let handle_query st line =
  match Parser.program_of_string line with
  | exception Parser.Error msg -> print_err msg
  | p -> (
      (* the parser turned ?- into a rule for a fresh query predicate *)
      match p.Program.query with
      | Some q ->
          let rules = Program.rules_defining p q in
          let body_and_cstr =
            List.map (fun (r : Rule.t) -> (r.Rule.body, r.Rule.cstr)) rules
          in
          List.iter (fun (lits, cstr) -> eval_query st (lits, cstr)) body_and_cstr
      | None -> print_err "malformed query")

let rec read_clause buf =
  (* keep reading lines until a clause-terminating '.' *)
  let line = read_line () in
  Buffer.add_string buf line;
  Buffer.add_char buf '\n';
  let s = String.trim (Buffer.contents buf) in
  if s = "" then ""
  else if String.length s > 0 && (s.[0] = ':' || s.[String.length s - 1] = '.') then s
  else begin
    print_string "...> ";
    read_clause buf
  end

let () =
  let st = initial_state () in
  Array.iteri (fun i arg -> if i > 0 then load_file st arg) Sys.argv;
  print_endline "cqlrepl: pushing constraint selections (:help for commands)";
  try
    while true do
      print_string "cql> ";
      match read_clause (Buffer.create 64) with
      | "" -> ()
      | s when s.[0] = ':' -> handle_command st s
      | s when String.length s >= 2 && String.sub s 0 2 = "?-" -> handle_query st s
      | s -> add_source st s
      | exception End_of_file -> raise Exit
    done
  with Exit -> print_endline "bye"
