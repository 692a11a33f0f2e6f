(* Tests for the bottom-up evaluation engine: constraint facts, subsumption,
   the semi-naive fixpoint checked against the seed reference evaluator's
   semi-naive and naive modes, compiled join plans, derivation trees, and
   EDB admission. *)

open Cql_num
open Cql_constr
open Cql_datalog
open Cql_eval
module Reference = Cql_gen.Reference

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let parse = Parser.program_of_string
let facts = Parser.facts_of_string
let edb_of s = List.map Fact.of_fact_rule (facts s)

(* ----- facts ----- *)

let test_fact_ground () =
  let f = Fact.ground "edge" [ Term.Sym "a"; Term.Num (Rat.of_int 3) ] in
  check_bool "ground" true (Fact.is_ground f);
  check_bool "value" true (Fact.ground_value f 2 = Some (Rat.of_int 3));
  check_bool "sym has no value" true (Fact.ground_value f 1 = None);
  Alcotest.(check string) "print" "edge(a, 3)" (Fact.to_string f)

let test_fact_constraint () =
  let r = Parser.rule_of_string "p(X, Y; X <= Y, Y <= 4)." in
  let f = Fact.of_fact_rule r in
  check_bool "not ground" false (Fact.is_ground f);
  check_bool "no pinned value" true (Fact.ground_value f 1 = None);
  (* $1 <= $2 and $2 <= 4 hold *)
  let c = Fact.cstr f in
  check_bool "implies $1 <= 4" true
    (Conj.implies_atom c (Atom.le (Linexpr.var (Var.arg 1)) (Linexpr.of_int 4)))

let test_fact_unsat () =
  List.iter
    (fun src ->
      check_bool src true
        (match Fact.of_fact_rule (Parser.rule_of_string src) with
        | exception Fact.Unsat -> true
        | _ -> false))
    [
      "p(X; X <= 1, X >= 2).";
      (* a ground head does not skip the constraint *)
      "p(1; X <= 1, X >= 2).";
    ]

let test_fact_repeated_vars () =
  (* p(X, X) pins $1 = $2 *)
  let f = Fact.of_fact_rule (Parser.rule_of_string "p(X, X; X >= 1).") in
  check_bool "$1 = $2" true
    (Conj.implies_atom (Fact.cstr f) (Atom.eq (Linexpr.var (Var.arg 1)) (Linexpr.var (Var.arg 2))))

let test_subsumption () =
  let fa = Fact.of_fact_rule (Parser.rule_of_string "p(X; X <= 2).") in
  let fb = Fact.of_fact_rule (Parser.rule_of_string "p(X; X <= 4).") in
  check_bool "wider subsumes narrower" true (Fact.subsumes fb fa);
  check_bool "narrower does not subsume" false (Fact.subsumes fa fb);
  let g = Fact.ground "p" [ Term.Num Rat.one ] in
  check_bool "constraint fact subsumes ground instance" true (Fact.subsumes fb g);
  let s1 = Fact.ground "p" [ Term.Sym "a" ] in
  let s2 = Fact.ground "p" [ Term.Sym "b" ] in
  check_bool "different syms incomparable" false (Fact.subsumes s1 s2);
  check_bool "sym vs numeric incomparable" false (Fact.subsumes s1 g)

(* the EDBs of examples/programs/flights_edb.cql and scheduling_edb.cql *)
let flights_edb_src =
  {|
singleleg(madison, chicago, 50, 100).
singleleg(chicago, seattle, 230, 90).
singleleg(chicago, newyork, 110, 160).
singleleg(newyork, boston, 45, 60).
singleleg(seattle, anchorage, 200, 210).
|}

let scheduling_edb_src =
  {|
calendar(alice, 9, 12).
calendar(alice, 14, 18).
calendar(bob, 10, 16).
calendar(carol, 8, 10).
|}

(* a ground, unconstrained fact pins each numeric position to one value:
   loading it has nothing to decide *)
let test_ground_load_no_solver () =
  List.iter
    (fun d ->
      Cdomain.with_domain d (fun () ->
          List.iter
            (fun (name, src) ->
              let rules = facts src in
              Memo.clear_all ();
              Cql_obs.Obs.zero "solver.";
              let loaded = List.map Fact.of_fact_rule rules in
              let s = Solver_stats.snapshot () in
              let tag what = Printf.sprintf "%s [%s]: %s" name (Cdomain.to_string d) what in
              check_int (tag "facts") (List.length rules) (List.length loaded);
              check_bool (tag "all ground") true (List.for_all Fact.is_ground loaded);
              check_int (tag "sat checks") 0 s.Solver_stats.sat_checks;
              check_int (tag "simplex runs") 0 s.Solver_stats.simplex_runs;
              check_int (tag "implied-atom checks") 0 s.Solver_stats.implies_atom_checks;
              check_int (tag "projections") 0 s.Solver_stats.project_calls)
            [ ("flights", flights_edb_src); ("scheduling", scheduling_edb_src) ]))
    [ Cdomain.Q; Cdomain.Z ];
  let half = Parser.rule_of_string "p(0.5, a)." in
  check_bool "a fractional pin is refuted over Z" true
    (Cdomain.with_domain Cdomain.Z (fun () ->
         match Fact.of_fact_rule half with exception Fact.Unsat -> true | _ -> false));
  Alcotest.(check string)
    "and loads over Q" "p(1/2, a)"
    (Cdomain.with_domain Cdomain.Q (fun () -> Fact.to_string (Fact.of_fact_rule half)))

(* ----- evaluation: transitive closure over ground facts ----- *)

let tc_src = {|
path(X, Y) :- edge(X, Y).
path(X, Z) :- edge(X, Y), path(Y, Z).
#query path.
|}

let test_transitive_closure () =
  let p = parse tc_src in
  let edb = edb_of "edge(a, b). edge(b, c). edge(c, d)." in
  let res = Engine.run ~traced:true p ~edb in
  check_int "paths" 6 (List.length (Engine.facts_of res "path"));
  check_bool "fixpoint" true (Engine.stats res).Engine.reached_fixpoint;
  check_bool "all ground" true (Engine.all_ground res);
  (* naive evaluation agrees *)
  Reference_check.check_naive "naive" res (Reference.run_naive p ~edb)

(* ----- evaluation: arithmetic (flights) ----- *)

let flights_src =
  {|
r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.
r2: cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.
r3: flight(Src, Dst, Time, Cost) :- singleleg(Src, Dst, Time, Cost), Cost > 0, Time > 0.
r4: flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2),
                          T = T1 + T2 + 30, C = C1 + C2.
#query cheaporshort.
|}

let test_flights_arithmetic () =
  let p = parse flights_src in
  let edb =
    edb_of
      {|
singleleg(madison, chicago, 50, 100).
singleleg(chicago, seattle, 230, 90).
|}
  in
  let res = Engine.run p ~edb in
  check_bool "ground only" true (Engine.all_ground res);
  let flights = Engine.facts_of res "flight" in
  check_int "three flights" 3 (List.length flights);
  (* the composite flight madison->seattle takes 50+230+30 = 310, costs 190 *)
  let composite =
    List.find
      (fun f -> Fact.ground_value f 3 = Some (Rat.of_int 310))
      flights
  in
  check_bool "cost 190" true (Fact.ground_value composite 4 = Some (Rat.of_int 190));
  (* it is neither cheap nor short, so cheaporshort has only the two legs *)
  check_int "cheaporshort" 2 (List.length (Engine.facts_of res "cheaporshort"))

let test_flights_pruning_edb () =
  (* nonpositive-time/cost singlelegs are filtered by r3's constraints *)
  let p = parse flights_src in
  let edb = edb_of "singleleg(a, b, 0, 10). singleleg(b, c, 10, -5). singleleg(c, d, 1, 1)." in
  let res = Engine.run p ~edb in
  check_int "one flight" 1 (List.length (Engine.facts_of res "flight"))

(* ----- evaluation: constraint facts & subsumption during evaluation ----- *)

let test_constraint_fact_evaluation () =
  let p = parse {|
q(X) :- p(X), X >= 1.
p(X) :- base(X; X <= 10).
#query q.
|} in
  (* base is a constraint fact supplied in the program itself (via EDB) *)
  let edb = edb_of "base(X; X <= 10)." in
  let res = Engine.run p ~edb in
  (match Engine.facts_of res "q" with
  | [ f ] ->
      check_bool "q constrained both sides" true
        (Conj.equiv (Fact.cstr f)
           (Conj.of_list
              [ Atom.ge (Linexpr.var (Var.arg 1)) (Linexpr.of_int 1);
                Atom.le (Linexpr.var (Var.arg 1)) (Linexpr.of_int 10) ]))
  | l -> Alcotest.failf "expected one q fact, got %d" (List.length l));
  check_bool "not ground" false (Engine.all_ground res)

let test_subsumption_during_evaluation () =
  (* p(X; X<=5) subsumes p(X; X<=3); only one stored *)
  let p = parse {|
p(X) :- a(X; X <= 5).
p(X) :- a(X; X <= 3).
#query p.
|} in
  let edb = edb_of "a(X; X <= 5)." in
  let res = Engine.run ~traced:true p ~edb in
  check_int "one p fact" 1 (List.length (Engine.facts_of res "p"));
  let subsumed = List.filter (fun (t : Engine.trace_entry) -> t.Engine.subsumed) (Engine.trace res) in
  check_int "one subsumed derivation" 1 (List.length subsumed)

(* ----- evaluation: non-termination budgets (backward fib, Table 1) ----- *)

let fib_src = {|
r1: fib(0, 1).
r2: fib(1, 1).
r3: fib(N, X1 + X2) :- N > 1, fib(N - 1, X1), fib(N - 2, X2).
#query fib.
|}

let test_fib_forward_style () =
  (* plain fib program diverges bottom-up; budget stops it *)
  let p = parse fib_src in
  let res = Engine.run ~max_iterations:6 p ~edb:[] in
  check_bool "budget hit" false (Engine.stats res).Engine.reached_fixpoint;
  let fibs = Engine.facts_of res "fib" in
  (* fib(4,5) must be among the computed facts after 6 iterations *)
  check_bool "fib(4,5) computed" true
    (List.exists
       (fun f -> Fact.ground_value f 1 = Some (Rat.of_int 4) && Fact.ground_value f 2 = Some (Rat.of_int 5))
       fibs)

let test_derivation_budget () =
  let p = parse fib_src in
  let res = Engine.run ~max_derivations:10 p ~edb:[] in
  check_bool "stopped by derivations" false (Engine.stats res).Engine.reached_fixpoint;
  check_bool "at most 10" true ((Engine.stats res).Engine.derivations <= 10)

(* the derivation that exhausts the budget is neither stored nor traced:
   on flights cut at 7 derivations, every fact the trace shows as stored,
   and every fact of an answer's derivation tree, is one the result holds *)
let test_budget_trace () =
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let dir = List.find Sys.file_exists [ "../examples/programs"; "examples/programs" ] in
  let p = parse (read (Filename.concat dir "flights.cql")) in
  let edb = edb_of (read (Filename.concat dir "flights_edb.cql")) in
  let res = Engine.run ~traced:true ~max_derivations:7 p ~edb in
  let s = Engine.stats res in
  check_bool "cut by the budget" false s.Engine.reached_fixpoint;
  check_int "derivations" 7 s.Engine.derivations;
  let held (f : Fact.t) =
    List.exists (fun g -> Fact.equal f g) (Engine.facts_of res (Fact.pred f))
  in
  let trace = Engine.trace res in
  check_int "the exhausting derivation is not traced" 6 (List.length trace);
  List.iter
    (fun (e : Engine.trace_entry) ->
      if not e.Engine.subsumed then
        check_bool ("held: " ^ Fact.to_string e.Engine.fact) true (held e.Engine.fact))
    trace;
  List.iter
    (fun a ->
      match Explain.tree res a with
      | None -> Alcotest.fail ("no tree for " ^ Fact.to_string a)
      | Some t ->
          List.iter
            (fun f -> check_bool ("tree fact held: " ^ Fact.to_string f) true (held f))
            (Explain.facts t))
    (Engine.answers res p)

(* budget exhaustion must be reported identically by the engine and the
   seed reference evaluator: [reached_fixpoint = false], the budget
   respected, and the partial results still available -- never a silent
   truncation *)
let test_budget_truncation_both_engines () =
  let diverging = parse "r1: p(0).\nr2: p(Y) :- p(X), Y = X + 1.\n#query p." in
  let finite = parse "r1: q(1).\nr2: q(2).\n#query q." in
  (* [run iters derivs p]; [stats r] is (fixpoint, iterations,
     derivations) *)
  let check tag run stats facts_of =
    let by_iter = run (Some 5) None diverging in
    let fixpoint, iterations, _ = stats by_iter in
    check_bool (tag ^ ": iteration budget reported") false fixpoint;
    check_bool (tag ^ ": iterations within budget") true (iterations <= 5);
    check_bool (tag ^ ": partial facts available") true (facts_of by_iter "p" <> []);
    let by_deriv = run None (Some 7) diverging in
    let fixpoint, _, derivations = stats by_deriv in
    check_bool (tag ^ ": derivation budget reported") false fixpoint;
    check_bool (tag ^ ": derivations within budget") true (derivations <= 7);
    check_bool (tag ^ ": partial facts under derivation budget") true
      (facts_of by_deriv "p" <> []);
    (* a terminating program under the same budgets still reports fixpoint *)
    let fixpoint, _, _ = stats (run (Some 5) (Some 7) finite) in
    check_bool (tag ^ ": fixpoint when budgets suffice") true fixpoint
  in
  check "engine"
    (fun max_iterations max_derivations p ->
      Engine.run ?max_iterations ?max_derivations p ~edb:[])
    (fun r ->
      let s = Engine.stats r in
      (s.Engine.reached_fixpoint, s.Engine.iterations, s.Engine.derivations))
    Engine.facts_of;
  check "reference"
    (fun max_iterations max_derivations p ->
      Reference.run ?max_iterations ?max_derivations p ~edb:[])
    (fun r ->
      let s = Reference.stats r in
      (s.Reference.reached_fixpoint, s.Reference.iterations, s.Reference.derivations))
    Reference.facts_of;
  (* both truncate at the same point: same facts, same counters *)
  List.iter
    (fun (what, e, r) ->
      Reference_check.check what e r;
      check_bool (what ^ ": truncation reported") false
        (Engine.stats e).Engine.reached_fixpoint)
    [
      ( "iteration cap",
        Engine.run ~max_iterations:5 diverging ~edb:[],
        Reference.run ~max_iterations:5 diverging ~edb:[] );
      ( "derivation cap",
        Engine.run ~max_derivations:7 diverging ~edb:[],
        Reference.run ~max_derivations:7 diverging ~edb:[] );
      (* a budget the fact rules already exhaust truncates iteration 0 *)
      ( "derivation cap in iteration 0",
        Engine.run ~max_derivations:1 finite ~edb:[],
        Reference.run ~max_derivations:1 finite ~edb:[] );
    ];
  (* the naive reference reports truncation at the same point *)
  let e = Engine.run ~max_iterations:4 diverging ~edb:[] in
  Reference_check.check_naive "naive iteration cap" e
    (Reference.run_naive ~max_iterations:4 diverging ~edb:[]);
  check_bool "naive iteration cap: truncation reported" false
    (Engine.stats e).Engine.reached_fixpoint

(* ----- semi-naive vs naive cross-check ----- *)

let test_seminaive_vs_naive () =
  let p = parse tc_src in
  let edb = edb_of "edge(a, b). edge(b, c). edge(c, a). edge(c, d)." in
  Reference_check.check_naive "cyclic graph" (Engine.run p ~edb) (Reference.run_naive p ~edb);
  let pf = parse flights_src in
  let edbf = edb_of "singleleg(a, b, 100, 60). singleleg(b, a, 90, 70). singleleg(b, c, 20, 20)." in
  (* cyclic flights diverge (times grow unboundedly); compare the prefix *)
  Reference_check.check_naive "flights prefix"
    (Engine.run ~max_iterations:8 pf ~edb:edbf)
    (Reference.run_naive ~max_iterations:8 pf ~edb:edbf)

(* iteration counting: paths in a chain of length n need n iterations *)
let test_iteration_count () =
  let p = parse tc_src in
  let edb = edb_of "edge(a, b). edge(b, c). edge(c, d). edge(d, e)." in
  let res = Engine.run p ~edb in
  (* longest path a->e uses 4 edges: derived at iteration 4; fixpoint at 5 *)
  check_int "iterations" 5 (Engine.stats res).Engine.iterations;
  check_int "ten paths" 10 (List.length (Engine.facts_of res "path"))


(* ----- additional engine coverage ----- *)

let test_facts_only_program () =
  (* a program of constraint facts only reaches fixpoint at iteration 1 *)
  let p = parse "p(1, 2). p(X, Y; X <= Y). #query p." in
  let res = Engine.run ~traced:true p ~edb:[] in
  check_bool "fixpoint" true (Engine.stats res).Engine.reached_fixpoint;
  (* the ground fact is subsumed by the constraint fact *)
  check_int "one stored fact" 1 (List.length (Engine.facts_of res "p"))

let test_empty_program () =
  let p = Program.make [] in
  let res = Engine.run p ~edb:[] in
  check_int "no facts" 0 (Engine.total_facts res);
  check_bool "fixpoint immediately" true (Engine.stats res).Engine.reached_fixpoint

let test_duplicate_edb_dedup () =
  let p = parse "q(X) :- e(X). #query q." in
  let edb = edb_of "e(1). e(1). e(1)." in
  let res = Engine.run p ~edb in
  check_int "edb deduped" 1 (List.length (Engine.facts_of res "e"));
  check_int "one answer" 1 (List.length (Engine.facts_of res "q"))

(* an EDB fact whose arity disagrees with the program is a typed error
   raised before the store is touched: a rejected view insert leaves the
   view serving, and predicates the program never mentions stay inert *)
let arity_src = "r1: q(X) :- r(Y), p(X, Y).\n#query q."

let rejected f = match f () with _ -> false | exception Engine.Arity_mismatch _ -> true

let test_edb_arity_mismatch () =
  let p = parse arity_src in
  let edb = edb_of "p(1). p(1, 2). r(2)." in
  check_bool "run" true (rejected (fun () -> Engine.run p ~edb));
  check_bool "materialize" true (rejected (fun () -> Engine.materialize p ~edb));
  let vw, _ = Engine.materialize p ~edb:(edb_of "p(1, 2). r(2).") in
  Fun.protect ~finally:(fun () -> Engine.close_view vw) @@ fun () ->
  let state () =
    List.map (fun (pred, fs) -> (pred, List.map Fact.to_string fs)) (Engine.view_all_facts vw)
  in
  let before = state () in
  check_bool "insert" true (rejected (fun () -> Engine.insert vw (edb_of "p(5, 2). p(1).")));
  check_bool "rejected batch left the view untouched" true (state () = before);
  ignore (Engine.insert vw (edb_of "p(5, 2)."));
  Alcotest.(check (list string))
    "the view keeps maintaining" [ "q(1)"; "q(5)" ]
    (List.sort compare (List.map Fact.to_string (Engine.view_answers vw)));
  let res = Engine.run p ~edb:(edb_of "z(1). z(1, 2). p(1, 2). r(2).") in
  check_int "unmentioned predicate accepted" 1 (List.length (Engine.answers res p))

let test_symbolic_in_arithmetic_prunes () =
  (* data feeding a symbol into an arithmetic position cannot derive *)
  let p = parse "q(X) :- e(X), X <= 3. #query q." in
  let edb = edb_of "e(apple). e(2)." in
  let res = Engine.run p ~edb in
  check_int "only numeric row" 1 (List.length (Engine.facts_of res "q"))

let test_repeated_vars_in_body () =
  (* p(X, X) only matches facts whose two columns are equal *)
  let p = parse "q(X) :- e(X, X). #query q." in
  let edb = edb_of "e(1, 1). e(1, 2). e(a, a). e(a, b)." in
  let res = Engine.run p ~edb in
  check_int "two diagonal matches" 2 (List.length (Engine.facts_of res "q"))

let test_constants_in_rule_body () =
  let p = parse "q(X) :- e(a, X, 3). #query q." in
  let edb = edb_of "e(a, u, 3). e(a, v, 4). e(b, w, 3)." in
  let res = Engine.run p ~edb in
  check_int "constant filters" 1 (List.length (Engine.facts_of res "q"))

let test_constraint_fact_join () =
  (* joining two constraint facts intersects their constraints *)
  let p = parse "q(X) :- lo(X), hi(X). #query q." in
  let edb = edb_of "lo(X; X >= 2). hi(X; X <= 5)." in
  let res = Engine.run p ~edb in
  (match Engine.facts_of res "q" with
  | [ f ] ->
      check_bool "interval [2,5]" true
        (Conj.equiv (Fact.cstr f)
           (Conj.of_list
              [ Atom.ge (Linexpr.var (Var.arg 1)) (Linexpr.of_int 2);
                Atom.le (Linexpr.var (Var.arg 1)) (Linexpr.of_int 5) ]))
  | l -> Alcotest.failf "expected 1 fact, got %d" (List.length l));
  (* disjoint intervals derive nothing *)
  let edb2 = edb_of "lo(X; X >= 7). hi(X; X <= 5)." in
  let res2 = Engine.run p ~edb:edb2 in
  check_int "disjoint join empty" 0 (List.length (Engine.facts_of res2 "q"))

let test_projection_in_heads () =
  (* head drops a column; the constraint on the dropped var is projected *)
  let p = parse "q(X) :- e(X, Y), X <= Y, Y <= 10. #query q." in
  let edb = edb_of "e(X, Y; Y >= 4)." in
  let res = Engine.run p ~edb in
  (match Engine.facts_of res "q" with
  | [ f ] ->
      (* exists Y. X <= Y <= 10 & Y >= 4  gives  X <= 10 *)
      check_bool "projected bound" true
        (Conj.equiv (Fact.cstr f)
           (Conj.of_list [ Atom.le (Linexpr.var (Var.arg 1)) (Linexpr.of_int 10) ]))
  | l -> Alcotest.failf "expected 1 fact, got %d" (List.length l))

let test_zero_arity_predicates () =
  let p = parse "go :- e(X), X >= 1.\nq(X) :- go, e(X). #query q." in
  let edb = edb_of "e(0). e(3)." in
  let res = Engine.run p ~edb in
  check_int "go derived once" 1 (List.length (Engine.facts_of res "go"));
  check_int "q has both rows" 2 (List.length (Engine.facts_of res "q"))


(* ----- derivation trees (Definition 2.2), read from the trace ----- *)

let test_derivation_tree () =
  let p = parse flights_src in
  let edb =
    edb_of "singleleg(madison, chicago, 50, 100).\nsingleleg(chicago, seattle, 100, 80)."
  in
  let res = Engine.run ~traced:true p ~edb in
  (* the composite madison->seattle flight: 50+100+30 = 180, 100+80 = 180 *)
  let composite =
    List.find
      (fun f -> Fact.ground_value f 3 = Some (Rat.of_int 180))
      (Engine.facts_of res "flight")
  in
  (match Explain.tree res composite with
  | None -> Alcotest.fail "no derivation tree"
  | Some t ->
      check_bool "root rule r4" true (t.Explain.rule = "r4");
      check_int "two flight children" 2 (List.length t.Explain.children);
      check_int "tree depth" 3 (Explain.depth t);
      check_int "tree size" 5 (Explain.size t);
      (* leaves are EDB singleleg facts *)
      let rec leaves (n : Explain.t) =
        if n.Explain.children = [] then [ n ] else List.concat_map leaves n.Explain.children
      in
      List.iter
        (fun (l : Explain.t) ->
          check_bool "leaf is edb" true (l.Explain.rule = "edb");
          check_bool "leaf is singleleg" true (Fact.pred l.Explain.fact = "singleleg"))
        (leaves t));
  (* unknown facts have no tree *)
  check_bool "unknown fact" true (Explain.tree res (Fact.ground "flight" [ Term.Sym "x"; Term.Sym "y"; Term.Num Rat.one; Term.Num Rat.one ]) = None);
  (* an untraced run has no derivations to read: refused, never all-edb *)
  let untraced = Engine.run p ~edb in
  check_bool "untraced run refused" true
    (match Explain.tree untraced (List.hd (Engine.facts_of untraced "flight")) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_matches_literal () =
  let f = Fact.ground "e" [ Term.Sym "a"; Term.Num (Rat.of_int 3) ] in
  let lit args = Literal.make "e" args in
  check_bool "exact" true (Fact.matches_literal (lit [ Term.sym "a"; Term.int 3 ]) f);
  check_bool "wrong sym" false (Fact.matches_literal (lit [ Term.sym "b"; Term.int 3 ]) f);
  check_bool "wrong num" false (Fact.matches_literal (lit [ Term.sym "a"; Term.int 4 ]) f);
  check_bool "vars always ok" true
    (Fact.matches_literal (lit [ Term.var (Var.fresh "X"); Term.var (Var.fresh "Y") ]) f);
  check_bool "arity mismatch" false (Fact.matches_literal (Literal.make "e" [ Term.int 3 ]) f);
  (* unpinned numeric position matches any numeric constant *)
  let cf = Fact.of_fact_rule (Parser.rule_of_string "e(a, X; X <= 9).") in
  check_bool "unpinned accepts constant" true
    (Fact.matches_literal (lit [ Term.sym "a"; Term.int 3 ]) cf)

(* ----- compiled register-frame execution vs the seed interpreter ----- *)

let compiled_flights_src =
  {|
r1: cheap(S, D, C) :- flight(S, D, C), C <= 150.
r2: flight(S, D, C) :- leg(S, D, C), C > 0.
r3: flight(S, D, C) :- flight(S, M, C1), leg(M, D, C2), C = C1 + C2.
#query cheap.
|}

(* acyclic leg network: the recursive flight rule reaches a fixpoint *)
let compiled_flights_edb =
  "leg(a, b, 40). leg(b, c, 70). leg(c, d, 90). leg(a, c, 130). leg(b, d, 60)."

let compiled_cf_src = "r1: q(X, Y) :- p(X, Y), r(Y), X <= Y.\n#query q."
let compiled_cf_edb = "p(X, Y; X >= 0, Y <= 5). p(2, 3). r(3). r(7)."

let fingerprint res =
  ( (Engine.stats res).Engine.derivations,
    (Engine.stats res).Engine.iterations,
    List.map
      (fun (pred, fs) -> (pred, List.map Fact.to_string fs))
      (List.sort compare (Engine.all_facts res)),
    List.map
      (fun (t : Engine.trace_entry) ->
        (t.Engine.iteration, t.Engine.rule_label, Fact.to_string t.Engine.fact,
         t.Engine.subsumed))
      (Engine.trace res) )

let test_compiled_matches_interpreter () =
  List.iter
    (fun (name, src, edb_src) ->
      let p = parse src in
      let edb = edb_of edb_src in
      Reference_check.check name
        (Engine.run ~max_iterations:20 ~max_derivations:20_000 p ~edb)
        (Reference.run ~max_iterations:20 ~max_derivations:20_000 p ~edb))
    [
      ("flights", compiled_flights_src, compiled_flights_edb);
      ("constraint facts", compiled_cf_src, compiled_cf_edb);
    ]

let test_compiled_counters () =
  let module Obs = Cql_obs.Obs in
  let programs = Obs.counter "engine.compile.programs_compiled" in
  let before = Obs.value programs in
  ignore
    (Engine.run ~max_iterations:20 (parse compiled_flights_src)
       ~edb:(edb_of compiled_flights_edb));
  check_bool "plans were compiled" true (Obs.value programs > before)

let test_compiled_artifact_reuse () =
  let module Obs = Cql_obs.Obs in
  let hits = Obs.counter "engine.compile.cache_hits" in
  let p = parse compiled_flights_src in
  let edb = edb_of compiled_flights_edb in
  let cp = Engine.compile_plans p in
  let h0 = Obs.value hits in
  let r1 = Engine.run ~max_iterations:20 ~traced:true ~compiled:cp p ~edb in
  check_bool "artifact hit" true (Obs.value hits > h0);
  let r2 = Engine.run ~max_iterations:20 ~traced:true p ~edb in
  check_bool "precompiled == fresh compile" true (fingerprint r1 = fingerprint r2);
  (* the artifact only applies to the exact program value it was built from *)
  let p' = parse compiled_flights_src in
  let h1 = Obs.value hits in
  let r3 = Engine.run ~max_iterations:20 ~traced:true ~compiled:cp p' ~edb in
  check_int "other program value: no hit" h1 (Obs.value hits);
  check_bool "and still correct" true (fingerprint r3 = fingerprint r2)

(* ----- the compiled constraint program at the leaf ----- *)

(* Each case runs under Q and under Z, checked against the reference
   evaluator, which finishes every candidate through the generic
   substitution + solver path.  [expect] pins the printed facts of some
   predicates per domain where the verdict itself is the point. *)
type leaf_case = {
  name : string;
  src : string;
  edb : string;
  expect : (Cdomain.t * string * string list) list;
}

let leaf_cases =
  [
    {
      name = "equation chain out of atom order";
      src = "q(T) :- e(A, B), T = U + 1, U = A + B.";
      edb = "e(1, 2). e(3, 4).";
      expect = [ (Cdomain.Q, "q", [ "q(4)"; "q(8)" ]); (Cdomain.Z, "q", [ "q(4)"; "q(8)" ]) ];
    };
    {
      name = "second equation on a solved variable is a check";
      src = "q(A, T) :- e(A, B), T = A + B, T = 2 * A.";
      edb = "e(1, 1). e(2, 3). e(5, 5).";
      expect = [ (Cdomain.Q, "q", [ "q(1, 2)"; "q(5, 10)" ]) ];
    };
    {
      name = "<, <= and = at the boundary";
      src =
        {|
lt(A, B) :- e(A, B), A < B.
le(A, B) :- e(A, B), A <= B.
eq(A, B) :- e(A, B), A = B.
q(T) :- e(A, B), T = A + B, T < 3.
r(T) :- e(A, B), T = A + B, T <= 3.
|};
      edb = "e(1, 1). e(1, 2). e(2, 1).";
      expect =
        [
          (Cdomain.Q, "lt", [ "lt(1, 2)" ]);
          (Cdomain.Q, "le", [ "le(1, 1)"; "le(1, 2)" ]);
          (Cdomain.Q, "eq", [ "eq(1, 1)" ]);
          (Cdomain.Q, "q", [ "q(2)" ]);
          (Cdomain.Q, "r", [ "r(2)"; "r(3)" ]);
        ];
    };
    {
      name = "boundaries and an odd solve on values past 2^30 and fractions";
      src =
        {|
lt(A, B) :- e(A, B), A < B.
le(A, B) :- e(A, B), A <= B.
eq(A, B) :- e(A, B), A = B.
q(T) :- e(A, B), T = A + B, T < 3.
r(T) :- e(A, B), T = A + B, T <= 3.
h(T) :- e(A, B), 2 * T = A + B.
|};
      edb =
        "e(1073741824, 1073741824). e(1073741824, 1073741825). e(1073741825, 1073741824). \
         e(1.5, 1.5). e(0.5, 1.5).";
      expect =
        [
          (Cdomain.Q, "lt", [ "lt(1/2, 3/2)"; "lt(1073741824, 1073741825)" ]);
          ( Cdomain.Q,
            "le",
            [
              "le(1/2, 3/2)";
              "le(3/2, 3/2)";
              "le(1073741824, 1073741824)";
              "le(1073741824, 1073741825)";
            ] );
          (Cdomain.Q, "eq", [ "eq(3/2, 3/2)"; "eq(1073741824, 1073741824)" ]);
          (Cdomain.Q, "q", [ "q(2)" ]);
          (Cdomain.Q, "r", [ "r(2)"; "r(3)" ]);
          (Cdomain.Q, "h", [ "h(1)"; "h(3/2)"; "h(1073741824)"; "h(2147483649/2)" ]);
          (Cdomain.Z, "h", [ "h(1)"; "h(1073741824)" ]);
        ];
    };
    {
      name = "2T = A with A odd";
      src = "q(T) :- e(A), 2 * T = A.";
      edb = "e(3). e(4).";
      expect = [ (Cdomain.Q, "q", [ "q(2)"; "q(3/2)" ]); (Cdomain.Z, "q", [ "q(2)" ]) ];
    };
    {
      name = "values past 2^30 and fractions";
      src =
        {|
q(A, T) :- e(A, B), T = A + B, T >= 0.
r(T) :- e(A, B), T = 1000 * A.
s(T) :- e(A, B), T = 1048576 * B, T > 0.
|};
      edb = "e(1073741824, 1). e(536870912, -1). e(3.5, 0.5). e(2.5, 1).";
      expect =
        [
          ( Cdomain.Q,
            "q",
            [
              "q(1073741824, 1073741825)"; "q(5/2, 7/2)"; "q(536870912, 536870911)"; "q(7/2, 4)";
            ] );
          (Cdomain.Z, "q", [ "q(1073741824, 1073741825)"; "q(536870912, 536870911)" ]);
          (Cdomain.Q, "r", [ "r(1073741824000)"; "r(2500)"; "r(3500)"; "r(536870912000)" ]);
          (Cdomain.Q, "s", [ "s(1048576)"; "s(524288)" ]);
        ];
    };
    {
      name = "symbol in an arithmetic position";
      src = "q(X) :- e(X, Y), X <= Y.\np(S, T) :- e(S, A), T = A + 1.";
      edb = "e(apple, 3). e(2, 3). e(4, 3).";
      expect =
        [ (Cdomain.Q, "q", [ "q(2)" ]); (Cdomain.Q, "p", [ "p(2, 4)"; "p(4, 4)"; "p(apple, 4)" ]) ];
    };
    {
      name = "head variable no body literal binds";
      src = "q(X, Y) :- e(X).\nr(X, Y) :- e(X), Y >= X.";
      edb = "e(1). e(2).";
      expect = [];
    };
    {
      name = "constraint facts in the body";
      src =
        {|
p(7, X2) :- m(7, X2), e(X1), X2 - X1 = 6.
q(X, T) :- w(X), e(T), X = T.
r(X, T) :- lo(X), T = X + 1.
|};
      edb = "m(X, X). w(X). e(5). lo(X; X >= 2).";
      expect = [ (Cdomain.Q, "p", []); (Cdomain.Z, "p", []); (Cdomain.Q, "q", [ "q(5, 5)" ]) ];
    };
    {
      name = "fractional head constant";
      src = "q(0.5, X) :- e(X).\nr(X, 2) :- e(X).\ns(0.5, T) :- e(X), T = X + 1.";
      edb = "e(1). e(2).";
      expect =
        [
          (Cdomain.Q, "q", [ "q(1/2, 1)"; "q(1/2, 2)" ]);
          (Cdomain.Z, "q", []);
          (Cdomain.Z, "r", [ "r(1, 2)"; "r(2, 2)" ]);
          (Cdomain.Q, "s", [ "s(1/2, 2)"; "s(1/2, 3)" ]);
          (Cdomain.Z, "s", []);
        ];
    };
  ]

let test_leaf_program () =
  List.iter
    (fun c ->
      let p = parse (c.src ^ "\n#query q.") in
      let edb = edb_of c.edb in
      List.iter
        (fun d ->
          let tag = Printf.sprintf "%s [%s]" c.name (Cdomain.to_string d) in
          Cdomain.with_domain d (fun () ->
              let e = Engine.run ~max_iterations:20 p ~edb in
              Reference_check.check tag e (Reference.run ~max_iterations:20 p ~edb);
              List.iter
                (fun (d', pred, want) ->
                  if d' = d then
                    Alcotest.(check (list string))
                      (tag ^ ": " ^ pred) (List.sort compare want)
                      (List.sort compare (List.map Fact.to_string (Engine.facts_of e pred))))
                c.expect))
        [ Cdomain.Q; Cdomain.Z ])
    leaf_cases

(* ----- join guards ----- *)

(* Each case runs under Q and under Z through the engine and the
   reference, which has no guards: a guard may drop only candidates the
   leaf would reject.  In [prunes] cases some candidate fails only a
   guard's own test, so [engine.join.guard_rejects] must move: in the
   boundary and lower-bound cases only through the guard the case is
   named for. *)
type guard_case = { g_name : string; g_src : string; g_edb : string; prunes : bool }

let guard_cases =
  [
    {
      g_name = "a strict bound met exactly at its boundary";
      g_src = "q(A, B) :- e(A), f(B), A + B < 5.";
      g_edb = "e(1). e(2). f(2). f(3).";
      prunes = true;
    };
    {
      g_name = "a lower bound (a negative coefficient)";
      g_src = "q(A, B) :- e(A), f(B), B >= A + 2.";
      g_edb = "e(1). e(3). f(2). f(3). f(5).";
      prunes = true;
    };
    {
      g_name = "an = check between two steps' columns";
      g_src = "q(A, B, C) :- e(A, B), f(C), C = A - B.";
      g_edb = "e(5, 1). e(1, 5). e(3, 3). f(4). f(-4). f(0). f(1).";
      prunes = true;
    };
    {
      g_name = "a bound with no earlier register, at a non-last step";
      g_src = "q(A, B) :- e(A), f(B), A <= 1.";
      g_edb = "e(0). e(1). e(2). f(7). f(8).";
      prunes = true;
    };
    {
      g_name = "fractional values at the boundary";
      g_src = "q(A, B) :- e(A), f(B), 2 * A + 3 * B <= 7.";
      g_edb = "e(0.5). e(1). f(1). f(2). f(2.1). f(1.6). f(1.7).";
      prunes = true;
    };
    {
      g_name = "a register value beyond 2^30";
      g_src = "q(A, B) :- e(A), f(B), B < A + 1, B > A - 1073741825.";
      g_edb = "e(1073741824). e(-1). f(1073741824). f(1073741825). f(-1073741826). f(0).";
      prunes = true;
    };
    {
      g_name = "a symbol in a guarded column";
      g_src = "q(A, B) :- e(A), f(B), B <= A.";
      g_edb = "e(3). e(pear). f(apple). f(1). f(5).";
      prunes = true;
    };
    {
      g_name = "a constraint fact whose guarded column is unpinned";
      g_src = "q(A, B) :- e(A), f(B), B <= A.\nr(A, B) :- e(A), f(B), T = A + B, T <= 4.";
      g_edb = "e(3). e(X; X >= 6). f(X; X <= 1). f(2). f(7).";
      prunes = true;
    };
    {
      g_name = "two registers first bound at one step stay at the leaf";
      g_src = "q(A, B) :- e(A, B), A < B.";
      g_edb = "e(1, 2). e(2, 1). e(3, 3).";
      prunes = false;
    };
  ]

let test_join_guards () =
  let rejects = Cql_obs.Obs.counter "engine.join.guard_rejects" in
  List.iter
    (fun c ->
      let p = parse (c.g_src ^ "\n#query q.") in
      let edb = edb_of c.g_edb in
      List.iter
        (fun d ->
          let tag = Printf.sprintf "%s [%s]" c.g_name (Cdomain.to_string d) in
          Cdomain.with_domain d (fun () ->
              let before = Cql_obs.Obs.value rejects in
              let e = Engine.run ~max_iterations:20 p ~edb in
              let dropped = Cql_obs.Obs.value rejects - before in
              Reference_check.check tag e (Reference.run ~max_iterations:20 p ~edb);
              check_bool (tag ^ ": answers") true (Engine.facts_of e "q" <> []);
              if c.prunes then
                check_bool (tag ^ ": the guards dropped a candidate") true (dropped > 0)
              else check_int (tag ^ ": no guard") 0 dropped))
        [ Cdomain.Q; Cdomain.Z ])
    guard_cases

let rat_gen =
  let open QCheck.Gen in
  (* past one limb: a * 2^e *)
  let big =
    map2
      (fun a e -> Bigint.mul (Bigint.of_int a) (Bigint.pow (Bigint.of_int 2) e))
      (int_range (-50) 50) (int_range 28 100)
  in
  oneof
    [
      return Rat.zero;
      map Rat.of_int (int_range (-1000) 1000);
      map2 Rat.of_ints (int_range (-1000) 1000) (int_range 1 1000);
      map Rat.of_bigint big;
      map2 (fun n d -> Rat.make n (Bigint.add d Bigint.one)) big (map Bigint.abs big);
    ]

let prop_pin =
  QCheck.Test.make ~name:"Atom.pin is Atom.eq of the variable and the constant" ~count:500
    (QCheck.make
       ~print:(fun (i, q) -> Printf.sprintf "$%d = %s" i (Rat.to_string q))
       QCheck.Gen.(pair (int_range 1 40) rat_gen))
    (fun (i, q) ->
      let x = Var.arg i in
      let a = Atom.pin x q and b = Atom.eq (Linexpr.var x) (Linexpr.const q) in
      Atom.equal a b && Atom.hash a = Atom.hash b)

(* ground fact rules: symbols from a small pool, numbers from [rat_gen] or
   a small range, so values repeat *)
let ground_rule_gen =
  let open QCheck.Gen in
  let const =
    oneof
      [
        map (fun s -> Term.Sym s) (oneofl [ "a"; "b" ]);
        map (fun q -> Term.Num q) rat_gen;
        map (fun n -> Term.Num (Rat.of_int n)) (int_range 0 2);
      ]
  in
  pair (oneofl [ "p"; "q" ]) (list_size (int_range 0 5) const)

let ground_head (pred, consts) = Literal.make pred (List.map (fun c -> Term.C c) consts)

let prop_ground_direct =
  QCheck.Test.make ~name:"ground facts built directly are the facts make builds" ~count:500
    (QCheck.make ~print:(fun g -> Literal.to_string (ground_head g)) ground_rule_gen)
    (fun (pred, consts) ->
      let rule = Rule.fact (ground_head (pred, consts)) Conj.tt in
      let pos = function Term.Sym s -> Fact.Psym s | Term.Num _ -> Fact.Pvar in
      let args = Array.of_list (List.map pos consts) in
      let pins =
        List.concat
          (List.mapi
             (fun i c ->
               match c with
               | Term.Num q -> [ Atom.eq (Linexpr.var (Var.arg (i + 1))) (Linexpr.const q) ]
               | Term.Sym _ -> [])
             consts)
      in
      let build f = match f () with f -> Some f | exception Fact.Unsat -> None in
      (* one representation: polymorphic [=] is what the update oracle
         compares view states with *)
      let same (f : Fact.t) (m : Fact.t) = Fact.compare f m = 0 && f = m in
      let fractional = function Term.Num q -> not (Rat.is_integer q) | Term.Sym _ -> false in
      List.for_all
        (fun d ->
          Cdomain.with_domain d (fun () ->
              match
                ( build (fun () -> Fact.of_fact_rule rule),
                  build (fun () -> Fact.ground pred consts),
                  build (fun () -> Fact.make pred args (Conj.of_list pins)) )
              with
              | None, None, None -> true
              | Some r, Some g, Some m ->
                  same r m && same g m
                  (* [of_consts] is unchecked: over ℤ a fractional pin is
                     the executor's leaf to reject *)
                  && (d = Cdomain.Z && List.exists fractional consts
                     || same (Fact.of_consts pred (Array.of_list consts)) m)
              | _ -> false))
        [ Cdomain.Q; Cdomain.Z ])

(* the definition [Fact.compare] had before it stopped copying the
   patterns into lists *)
let list_fact_compare (a : Fact.t) (b : Fact.t) =
  let c = String.compare a.Fact.pred b.Fact.pred in
  if c <> 0 then c
  else
    let pattern f =
      Array.to_list (Array.map (function Fact.Psym s -> Some s | Fact.Pvar -> None) f.Fact.args)
    in
    let c = Stdlib.compare (pattern a) (pattern b) in
    if c <> 0 then c else Conj.compare (Fact.cstr a) (Fact.cstr b)

(* ground facts of up to four positions; numbers are small fractions (so
   values, numerators and denominators tie), or negative, fractional or
   past one limb ([rat_gen]) *)
let fact_num_gen =
  let open QCheck.Gen in
  oneof
    [
      map2 (fun n d -> Term.Num (Rat.of_ints n d)) (int_range (-2) 2) (int_range 1 3);
      map (fun q -> Term.Num q) rat_gen;
    ]

let fact_gen =
  let open QCheck.Gen in
  let arg = oneof [ map (fun s -> Term.Sym s) (oneofl [ ""; "a"; "ab"; "b" ]); fact_num_gen ] in
  map2 Fact.ground (oneofl [ "p"; "q" ]) (list_size (int_range 0 4) arg)

(* two ground facts of one pattern with up to four pins, so the order is
   decided by the pins *)
let same_pattern_gen =
  let open QCheck.Gen in
  list_size (int_range 0 4)
    (oneof [ map (fun s -> Term.Sym s) (oneofl [ "a"; "b" ]); fact_num_gen ])
  >>= fun shape ->
  let values =
    flatten_l
      (List.map (function Term.Sym _ as c -> return c | Term.Num _ -> fact_num_gen) shape)
  in
  map2 (fun a b -> (Fact.ground "p" a, Fact.ground "p" b)) values values

let prop_fact_compare =
  QCheck.Test.make ~name:"Fact.compare orders as the list-based definition" ~count:2000
    (QCheck.make ~print:(fun (a, b) -> Fact.to_string a ^ " vs " ^ Fact.to_string b)
       QCheck.Gen.(oneof [ pair fact_gen fact_gen; same_pattern_gen ]))
    (fun (a, b) -> Int.compare (Fact.compare a b) 0 = Int.compare (list_fact_compare a b) 0)

(* comparing ground facts allocates nothing: the views' fact maps compare
   on every insert and lookup *)
let test_fact_compare_alloc () =
  let facts =
    Array.of_list
      (List.map
         (fun (s, t, c) ->
           Fact.ground "leg" [ Term.Sym s; Term.Num (Rat.of_int t); Term.Num c ])
         [
           ("a", 50, Rat.of_int 100);
           ("a", 50, Rat.of_ints 201 2);
           ("b", -30, Rat.of_int 100);
           ("a", 50, Rat.of_int 100);
           ("a", 1 lsl 40, Rat.of_int 7);
         ])
  in
  let n = Array.length facts in
  let w0 = Gc.minor_words () in
  for k = 0 to 9_999 do
    ignore (Sys.opaque_identity (Fact.compare facts.(k mod n) facts.((k + 1) mod n)))
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "minor words for 10,000 compares" 0. (w1 -. w0)

(* ----- the cqlopt CLI ----- *)

(* a mixed-arity EDB is reported as an error with exit status 1, not an
   uncaught exception *)
let test_cli_edb_arity () =
  let cqlopt =
    (* runtest sandbox cwd is test/; dune exec runs from the project root *)
    List.find Sys.file_exists [ "../bin/cqlopt.exe"; "_build/default/bin/cqlopt.exe" ]
  in
  let write suffix contents =
    let path = Filename.temp_file "cqlopt_cli" suffix in
    Out_channel.with_open_text path (fun oc -> output_string oc contents);
    path
  in
  let prog = write ".cql" arity_src and edb = write ".cql" "p(1). p(1, 2). r(2)." in
  let err = Filename.temp_file "cqlopt_cli" ".err" in
  let status =
    Sys.command
      (Filename.quote_command cqlopt [ "eval"; prog; "--edb"; edb ] ~stdout:Filename.null
         ~stderr:err)
  in
  let msg = In_channel.with_open_text err In_channel.input_all in
  List.iter Sys.remove [ prog; edb; err ];
  check_int "exit status" 1 status;
  check_bool "the message names the arity clash" true
    (let has sub =
       let n = String.length sub in
       let rec go i = i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1)) in
       go 0
     in
     has "p/2")

let () =
  Alcotest.run "eval"
    [
      ( "facts",
        [
          Alcotest.test_case "ground facts" `Quick test_fact_ground;
          Alcotest.test_case "constraint facts" `Quick test_fact_constraint;
          Alcotest.test_case "unsat rejected" `Quick test_fact_unsat;
          Alcotest.test_case "repeated vars" `Quick test_fact_repeated_vars;
          Alcotest.test_case "subsumption" `Quick test_subsumption;
          Alcotest.test_case "ground facts load without the solver" `Quick
            test_ground_load_no_solver;
        ] );
      ( "explain",
        [
          Alcotest.test_case "derivation tree" `Quick test_derivation_tree;
          Alcotest.test_case "matches_literal" `Quick test_matches_literal;
        ] );
      ( "engine-extra",
        [
          Alcotest.test_case "facts-only program" `Quick test_facts_only_program;
          Alcotest.test_case "empty program" `Quick test_empty_program;
          Alcotest.test_case "duplicate EDB dedup" `Quick test_duplicate_edb_dedup;
          Alcotest.test_case "EDB arity mismatch" `Quick test_edb_arity_mismatch;
          Alcotest.test_case "symbol in arithmetic prunes" `Quick test_symbolic_in_arithmetic_prunes;
          Alcotest.test_case "repeated body vars" `Quick test_repeated_vars_in_body;
          Alcotest.test_case "constants in body" `Quick test_constants_in_rule_body;
          Alcotest.test_case "constraint fact join" `Quick test_constraint_fact_join;
          Alcotest.test_case "head projection" `Quick test_projection_in_heads;
          Alcotest.test_case "zero-arity predicates" `Quick test_zero_arity_predicates;
        ] );
      ( "engine",
        [
          Alcotest.test_case "transitive closure" `Quick test_transitive_closure;
          Alcotest.test_case "flights arithmetic" `Quick test_flights_arithmetic;
          Alcotest.test_case "flights EDB pruning" `Quick test_flights_pruning_edb;
          Alcotest.test_case "constraint facts in evaluation" `Quick test_constraint_fact_evaluation;
          Alcotest.test_case "subsumption during evaluation" `Quick test_subsumption_during_evaluation;
          Alcotest.test_case "fib diverges, budget stops" `Quick test_fib_forward_style;
          Alcotest.test_case "derivation budget" `Quick test_derivation_budget;
          Alcotest.test_case "the exhausting derivation is not traced" `Quick test_budget_trace;
          Alcotest.test_case "budget truncation both engines" `Quick
            test_budget_truncation_both_engines;
          Alcotest.test_case "semi-naive vs naive" `Quick test_seminaive_vs_naive;
          Alcotest.test_case "iteration counts" `Quick test_iteration_count;
        ] );
      ( "compiled",
        [
          Alcotest.test_case "matches the interpreter" `Quick test_compiled_matches_interpreter;
          Alcotest.test_case "compile counters" `Quick test_compiled_counters;
          Alcotest.test_case "precompiled artifact reuse" `Quick test_compiled_artifact_reuse;
        ] );
      ( "leaf",
        [
          Alcotest.test_case "constraint program vs reference" `Quick test_leaf_program;
          Alcotest.test_case "join guards vs reference" `Quick test_join_guards;
          QCheck_alcotest.to_alcotest prop_pin;
          QCheck_alcotest.to_alcotest prop_ground_direct;
          QCheck_alcotest.to_alcotest prop_fact_compare;
          Alcotest.test_case "Fact.compare allocates nothing" `Quick test_fact_compare_alloc;
        ] );
      ( "cli",
        [ Alcotest.test_case "eval rejects a mixed-arity EDB" `Quick test_cli_edb_arity ] );
    ]
