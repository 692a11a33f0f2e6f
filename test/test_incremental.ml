(* Tests for incremental view maintenance: Engine.materialize / insert /
   retract against from-scratch re-evaluation, the retraction edge cases
   (subsumption covers, cyclic support, retract-then-reinsert) and budget
   accounting. *)

open Cql_datalog
open Cql_eval

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let parse = Parser.program_of_string
let edb_of s = List.map Fact.of_fact_rule (Parser.facts_of_string s)

(* all live facts of a view / result, sorted, for state comparison *)
let result_state r =
  List.sort compare
    (List.filter_map
       (fun (p, fs) ->
         match List.sort Fact.compare fs with [] -> None | fs -> Some (p, fs))
       (Engine.all_facts r))

let view_state vw =
  List.filter (fun (_, fs) -> fs <> []) (Engine.view_all_facts vw)

(* compare a view against a fresh materialization of its current EDB:
   answers, full fact state, support counts and completeness *)
let check_against_scratch ?(msg = "view") vw =
  let p = Engine.view_program vw in
  let edb = Engine.view_edb vw in
  let scratch, st = Engine.materialize p ~edb in
  check_bool (msg ^ ": scratch complete") true st.Engine.m_complete;
  check_bool (msg ^ ": view complete") true (Engine.view_complete vw);
  Alcotest.(check (list string))
    (msg ^ ": answers")
    (List.map Fact.to_string (Engine.view_answers scratch))
    (List.map Fact.to_string (Engine.view_answers vw));
  check_bool (msg ^ ": state") true (view_state scratch = view_state vw);
  check_bool (msg ^ ": counts") true
    (Engine.view_counts scratch = Engine.view_counts vw);
  (* and the plain engine agrees on the answers *)
  let r = Engine.run p ~edb in
  Alcotest.(check (list string))
    (msg ^ ": run answers")
    (List.map Fact.to_string (Engine.answers r p))
    (List.map Fact.to_string (Engine.view_answers vw));
  Engine.close_view scratch

let tc_program =
  parse
    {|
      path(X, Y) :- edge(X, Y).
      path(X, Z) :- edge(X, Y), path(Y, Z).
      #query path.
    |}

let chain_edb = edb_of "edge(a, b). edge(b, c). edge(c, d)."

(* ----- basics ----- *)

let test_materialize_matches_run () =
  let vw, st = Engine.materialize tc_program ~edb:chain_edb in
  check_bool "complete" true st.Engine.m_complete;
  check_int "edb inserted" 3 st.Engine.m_inserted;
  let r = Engine.run tc_program ~edb:chain_edb in
  check_bool "answers" true
    (Engine.view_answers vw = Engine.answers r tc_program);
  check_bool "state" true (view_state vw = result_state r);
  (* every live fact carries a positive support count *)
  List.iter
    (fun (_, counts) ->
      List.iter (fun (f, c) -> check_bool (Fact.to_string f) true (c > 0)) counts)
    (Engine.view_counts vw);
  Engine.close_view vw

let test_insert_maintains () =
  let vw, _ = Engine.materialize tc_program ~edb:chain_edb in
  let st = Engine.insert vw (edb_of "edge(d, e).") in
  check_bool "complete" true st.Engine.m_complete;
  check_int "inserted" 1 st.Engine.m_inserted;
  check_bool "derived something" true (st.Engine.m_derivations > 0);
  check_against_scratch ~msg:"after insert" vw;
  (* disconnected fact *)
  ignore (Engine.insert vw (edb_of "edge(x, y)."));
  check_against_scratch ~msg:"after second insert" vw;
  Engine.close_view vw

let test_retract_maintains () =
  let vw, _ = Engine.materialize tc_program ~edb:chain_edb in
  let st = Engine.retract vw (edb_of "edge(b, c).") in
  check_bool "complete" true st.Engine.m_complete;
  check_int "retracted" 1 st.Engine.m_retracted;
  check_bool "over-deleted the cone" true (st.Engine.m_over_deleted > 0);
  check_against_scratch ~msg:"after retract" vw;
  (* retracting an absent fact is a counted no-op *)
  let st = Engine.retract vw (edb_of "edge(nope, nada).") in
  check_int "noop" 1 st.Engine.m_noops;
  check_int "not retracted" 0 st.Engine.m_retracted;
  check_against_scratch ~msg:"after noop retract" vw;
  Engine.close_view vw

let test_duplicate_edb_multiset () =
  let vw, _ = Engine.materialize tc_program ~edb:chain_edb in
  (* inserting a duplicate bumps support; one retraction keeps the fact *)
  let st = Engine.insert vw (edb_of "edge(a, b).") in
  check_int "dup insert is a noop" 1 st.Engine.m_noops;
  let st = Engine.retract vw (edb_of "edge(a, b).") in
  check_int "first retraction" 1 st.Engine.m_retracted;
  check_int "nothing deleted" 0 st.Engine.m_deleted;
  check_against_scratch ~msg:"after first retraction" vw;
  let st = Engine.retract vw (edb_of "edge(a, b).") in
  check_bool "second retraction deletes" true (st.Engine.m_deleted > 0);
  check_against_scratch ~msg:"after second retraction" vw;
  Engine.close_view vw

(* ----- retraction edge cases (satellite) ----- *)

(* retracting a fact subsumed by a surviving constraint fact: the store
   never stored the narrow fact, so nothing changes *)
let test_retract_subsumed_by_survivor () =
  let p = parse "q(X) :- p(X), X <= 5. #query q." in
  let wide = Fact.of_fact_rule (Parser.rule_of_string "p(X; X >= 0, X <= 10).") in
  let narrow = Fact.of_fact_rule (Parser.rule_of_string "p(X; X >= 1, X <= 3).") in
  let vw, _ = Engine.materialize p ~edb:[ wide; narrow ] in
  let before = view_state vw in
  let st = Engine.retract vw [ narrow ] in
  check_int "retracted" 1 st.Engine.m_retracted;
  check_int "nothing over-deleted" 0 st.Engine.m_over_deleted;
  check_bool "state unchanged" true (view_state vw = before);
  check_against_scratch ~msg:"subsumed retract" vw;
  Engine.close_view vw

(* retracting the last cover resurrects the covered fact *)
let test_retract_cover_resurrects () =
  let p = parse "q(X) :- p(X), X <= 5. #query q." in
  let wide = Fact.of_fact_rule (Parser.rule_of_string "p(X; X >= 0, X <= 10).") in
  let narrow = Fact.of_fact_rule (Parser.rule_of_string "p(X; X >= 1, X <= 3).") in
  let vw, _ = Engine.materialize p ~edb:[ wide; narrow ] in
  let st = Engine.retract vw [ wide ] in
  check_int "retracted" 1 st.Engine.m_retracted;
  check_int "resurrected" 1 st.Engine.m_resurrected;
  check_against_scratch ~msg:"cover retract" vw;
  check_bool "narrow fact live" true
    (List.exists (fun f -> Fact.compare f narrow = 0) (Engine.view_facts_of vw "p"));
  Engine.close_view vw

(* a fact covered by a later insert and resurrected by its retraction
   keeps exactly the firings it had: re-deriving it must not add a second
   copy of a firing that is still live, or its support would count double *)
let test_resurrected_keeps_firings () =
  let p = parse "q(X) :- p(X), X <= 5. #query q." in
  let vw, _ = Engine.materialize p ~edb:(edb_of "p(X; X >= 1, X <= 3).") in
  let wide = edb_of "p(X; X >= 0, X <= 10)." in
  ignore (Engine.insert vw wide);
  check_against_scratch ~msg:"cover inserted" vw;
  let st = Engine.retract vw wide in
  check_bool "resurrected" true (st.Engine.m_resurrected > 0);
  check_against_scratch ~msg:"cover retracted" vw;
  Engine.close_view vw

(* retracting the last external support of a cyclically-derived fact must
   delete the whole cycle: p and q support each other, so counts alone
   would keep them alive *)
let test_retract_cyclic_last_support () =
  let p =
    parse
      {|
        p(X) :- q(X).
        q(X) :- p(X).
        p(X) :- b(X).
        #query p.
      |}
  in
  let vw, _ = Engine.materialize p ~edb:(edb_of "b(1).") in
  check_int "p derived" 1 (List.length (Engine.view_facts_of vw "p"));
  check_int "q derived" 1 (List.length (Engine.view_facts_of vw "q"));
  let st = Engine.retract vw (edb_of "b(1).") in
  check_bool "cycle over-deleted" true (st.Engine.m_over_deleted >= 3);
  check_int "nothing rederived" 0 st.Engine.m_rederived;
  check_int "p gone" 0 (List.length (Engine.view_facts_of vw "p"));
  check_int "q gone" 0 (List.length (Engine.view_facts_of vw "q"));
  check_against_scratch ~msg:"cyclic retract" vw;
  Engine.close_view vw

(* ... but a cycle with a second external support survives, untouched *)
let test_retract_cyclic_second_support () =
  let p =
    parse
      {|
        p(X) :- q(X).
        q(X) :- p(X).
        p(X) :- b(X).
        p(X) :- c(X).
        #query p.
      |}
  in
  let vw, _ = Engine.materialize p ~edb:(edb_of "b(1). c(1).") in
  let st = Engine.retract vw (edb_of "b(1).") in
  check_bool "rederived" true (st.Engine.m_rederived > 0);
  check_int "p survives" 1 (List.length (Engine.view_facts_of vw "p"));
  check_against_scratch ~msg:"cyclic second support" vw;
  Engine.close_view vw

(* retract-then-reinsert returns the store to a state bit-identical (same
   facts, same counts, same answers) to never having retracted *)
let test_retract_reinsert_identity () =
  let vw, _ = Engine.materialize tc_program ~edb:chain_edb in
  let state0 = view_state vw in
  let counts0 = Engine.view_counts vw in
  let answers0 = Engine.view_answers vw in
  ignore (Engine.retract vw (edb_of "edge(b, c)."));
  check_bool "state changed" true (view_state vw <> state0);
  ignore (Engine.insert vw (edb_of "edge(b, c)."));
  check_bool "state restored" true (view_state vw = state0);
  check_bool "counts restored" true (Engine.view_counts vw = counts0);
  check_bool "answers restored" true (Engine.view_answers vw = answers0);
  check_against_scratch ~msg:"retract-reinsert" vw;
  Engine.close_view vw

(* ----- budgets ----- *)

let test_budget_truncates () =
  let vw, st = Engine.materialize ~max_derivations:2 tc_program ~edb:chain_edb in
  check_bool "truncated" false st.Engine.m_complete;
  check_bool "view incomplete" false (Engine.view_complete vw);
  Engine.close_view vw;
  (* per-operation override *)
  let vw, st = Engine.materialize tc_program ~edb:chain_edb in
  check_bool "complete" true st.Engine.m_complete;
  let st = Engine.insert ~max_derivations:1 vw (edb_of "edge(d, e). edge(e, f).") in
  check_bool "insert truncated" false st.Engine.m_complete;
  check_bool "sticky" false (Engine.view_complete vw);
  Engine.close_view vw

let test_closed_view_raises () =
  let vw, _ = Engine.materialize tc_program ~edb:chain_edb in
  Engine.close_view vw;
  check_bool "insert raises" true
    (match Engine.insert vw (edb_of "edge(d, e).") with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* accessors still work *)
  check_bool "answers accessible" true (Engine.view_answers vw <> [])

(* ----- flights (constraint arithmetic) ----- *)

let flights_program () =
  match Parser.program_of_file "../examples/programs/flights.cql" with
  | p -> p
  | exception _ -> parse "q(X) :- p(X). #query q."

let test_flights_updates () =
  let p = flights_program () in
  let edb =
    edb_of
      {|
        singleleg(madison, chicago, 50, 100).
        singleleg(chicago, seattle, 230, 90).
        singleleg(chicago, newyork, 110, 160).
        singleleg(newyork, boston, 45, 60).
        singleleg(seattle, anchorage, 200, 210).
      |}
  in
  let vw, st = Engine.materialize p ~edb in
  check_bool "complete" true st.Engine.m_complete;
  ignore (Engine.insert vw (edb_of "singleleg(boston, portland, 100, 40)."));
  check_against_scratch ~msg:"flights insert" vw;
  ignore (Engine.retract vw (edb_of "singleleg(chicago, newyork, 110, 160)."));
  check_against_scratch ~msg:"flights retract" vw;
  ignore (Engine.insert vw (edb_of "singleleg(chicago, newyork, 110, 160)."));
  check_against_scratch ~msg:"flights reinsert" vw;
  Engine.close_view vw

(* ----- one round loop, one budget ----- *)

(* runtest sandbox cwd is test/; dune exec runs from the project root *)
let programs_dir = List.find Sys.file_exists [ "../examples/programs"; "examples/programs" ]
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A view and a run share one round loop and one derivation budget: on
   every example program, at a fixpoint and cut short by either budget,
   they report the same iterations, derivations, fact total, completion
   and answers.  A few of the readings are pinned as well. *)
let test_view_and_run_agree () =
  let pinned =
    [
      (("flights.cql", (50, 5000)), (4, 23, 23));
      (("flights.cql", (50, 7)), (2, 7, 11));
      (("fib.cql", (50, 5000)), (50, 53, 53));
    ]
  in
  let programs =
    List.filter
      (fun f -> Filename.check_suffix f ".cql" && not (Filename.check_suffix f "_edb.cql"))
      (List.sort compare (Array.to_list (Sys.readdir programs_dir)))
  in
  check_bool "every example program" true (List.length programs >= 5);
  List.iter
    (fun file ->
      let path = Filename.concat programs_dir file in
      let p = parse (read_file path) in
      let edb_path = Filename.chop_suffix path ".cql" ^ "_edb.cql" in
      let edb = if Sys.file_exists edb_path then edb_of (read_file edb_path) else [] in
      List.iter
        (fun ((max_iterations, max_derivations) as budget) ->
          let tag = Printf.sprintf "%s at (%d, %d)" file max_iterations max_derivations in
          let r = Engine.run ~max_iterations ~max_derivations p ~edb in
          let vw, ms = Engine.materialize ~max_iterations ~max_derivations p ~edb in
          let s = Engine.stats r in
          check_int (tag ^ ": iterations") s.Engine.iterations ms.Engine.m_iterations;
          check_int (tag ^ ": derivations") s.Engine.derivations ms.Engine.m_derivations;
          check_int (tag ^ ": facts") (Engine.total_facts r) (Engine.view_total vw);
          check_bool (tag ^ ": complete") s.Engine.reached_fixpoint ms.Engine.m_complete;
          Alcotest.(check (list string))
            (tag ^ ": answers")
            (List.map Fact.to_string (Engine.answers r p))
            (List.map Fact.to_string (Engine.view_answers vw));
          Option.iter
            (fun (iterations, derivations, facts) ->
              check_int (tag ^ ": pinned iterations") iterations s.Engine.iterations;
              check_int (tag ^ ": pinned derivations") derivations s.Engine.derivations;
              check_int (tag ^ ": pinned facts") facts (Engine.total_facts r))
            (List.assoc_opt (file, budget) pinned);
          Engine.close_view vw)
        [ (50, 5000); (5, 5000); (50, 7) ])
    programs

let () =
  Alcotest.run "incremental"
    [
      ( "basics",
        [
          Alcotest.test_case "materialize matches run" `Quick test_materialize_matches_run;
          Alcotest.test_case "insert maintains fixpoint" `Quick test_insert_maintains;
          Alcotest.test_case "retract maintains fixpoint" `Quick test_retract_maintains;
          Alcotest.test_case "duplicate EDB facts are a multiset" `Quick
            test_duplicate_edb_multiset;
          Alcotest.test_case "a view and a run agree" `Quick test_view_and_run_agree;
        ] );
      ( "retraction edge cases",
        [
          Alcotest.test_case "retract fact subsumed by survivor" `Quick
            test_retract_subsumed_by_survivor;
          Alcotest.test_case "retracting the cover resurrects" `Quick
            test_retract_cover_resurrects;
          Alcotest.test_case "a resurrected fact keeps its firings" `Quick
            test_resurrected_keeps_firings;
          Alcotest.test_case "cyclic last support" `Quick test_retract_cyclic_last_support;
          Alcotest.test_case "cyclic with second support" `Quick
            test_retract_cyclic_second_support;
          Alcotest.test_case "retract-then-reinsert is identity" `Quick
            test_retract_reinsert_identity;
        ] );
      ( "jobs & budgets",
        [
          Alcotest.test_case "budgets truncate maintenance" `Quick test_budget_truncates;
          Alcotest.test_case "closed view raises" `Quick test_closed_view_raises;
        ] );
      ( "flights",
        [ Alcotest.test_case "flights update stream" `Quick test_flights_updates ] );
    ]
