(* Tests for the CQL program representation: terms, literals, rules,
   programs, substitution/unification, dependency graph and the parser. *)

open Cql_num
open Cql_constr
open Cql_datalog

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ----- terms & literals ----- *)

let test_terms () =
  check_bool "var not ground" false (Term.is_ground (Term.var (Var.mk "X")));
  check_bool "sym ground" true (Term.is_ground (Term.sym "madison"));
  check_bool "num ground" true (Term.is_ground (Term.int 5));
  check_bool "num to_linexpr" true (Term.to_linexpr (Term.int 5) <> None);
  check_bool "sym no linexpr" true (Term.to_linexpr (Term.sym "a") = None);
  check_bool "const ordering" true (Term.compare (Term.int 1) (Term.sym "a") < 0)

let test_literals () =
  let l = Literal.canonical "p" 3 in
  check_int "canonical arity" 3 (Literal.arity l);
  check_str "canonical print" "p($1, $2, $3)" (Literal.to_string l);
  let f = Literal.fresh_args "p" 2 in
  check_int "fresh distinct" 2 (Var.Set.cardinal (Literal.vars f))

(* ----- unification ----- *)

let test_unify () =
  let x = Var.fresh "X" and y = Var.fresh "Y" in
  let l1 = Literal.make "p" [ Term.var x; Term.int 3 ] in
  let l2 = Literal.make "p" [ Term.sym "a"; Term.var y ] in
  (match Subst.unify l1 l2 with
  | None -> Alcotest.fail "should unify"
  | Some s ->
      check_bool "x bound to a" true (Term.equal (Subst.apply_term s (Term.var x)) (Term.sym "a"));
      check_bool "y bound to 3" true (Term.equal (Subst.apply_term s (Term.var y)) (Term.int 3)));
  (* clash *)
  check_bool "clash" true
    (Subst.unify (Literal.make "p" [ Term.int 1 ]) (Literal.make "p" [ Term.int 2 ]) = None);
  check_bool "pred mismatch" true
    (Subst.unify (Literal.make "p" [ Term.int 1 ]) (Literal.make "q" [ Term.int 1 ]) = None);
  check_bool "arity mismatch" true
    (Subst.unify (Literal.make "p" [ Term.int 1 ]) (Literal.make "p" [ Term.int 1; Term.int 2 ]) = None);
  (* chained variables: p(X, X) with p(Y, 5) binds both to 5 *)
  let l3 = Literal.make "p" [ Term.var x; Term.var x ] in
  let l4 = Literal.make "p" [ Term.var y; Term.int 5 ] in
  (match Subst.unify l3 l4 with
  | None -> Alcotest.fail "should unify"
  | Some s -> check_bool "x = 5 via y" true (Term.equal (Subst.apply_term s (Term.var x)) (Term.int 5)))

let test_subst_conj () =
  let x = Var.fresh "X" and y = Var.fresh "Y" in
  let c = Conj.of_list [ Atom.le (Linexpr.var x) (Linexpr.var y) ] in
  let s = Subst.of_bindings [ (y, Term.int 3) ] in
  let c' = Subst.apply_conj s c in
  check_bool "X <= 3" true (Conj.equiv c' (Conj.of_list [ Atom.le (Linexpr.var x) (Linexpr.of_int 3) ]));
  (* a symbol meeting arithmetic is unsatisfiable, not an exception *)
  let s_bad = Subst.of_bindings [ (y, Term.sym "a") ] in
  check_bool "symbol vs order atom is unsat" false (Conj.is_sat (Subst.apply_conj s_bad c));
  (* a pure equality between two symbol-bound variables is decided by
     symbol identity *)
  let eq = Conj.of_list [ Atom.eq (Linexpr.var x) (Linexpr.var y) ] in
  let s_same = Subst.of_bindings [ (x, Term.sym "a"); (y, Term.sym "a") ] in
  check_bool "same symbols: equality holds" true
    (Conj.is_tt (Subst.apply_conj s_same eq));
  let s_diff = Subst.of_bindings [ (x, Term.sym "a"); (y, Term.sym "b") ] in
  check_bool "distinct symbols: equality fails" false
    (Conj.is_sat (Subst.apply_conj s_diff eq));
  (* symbol = number is unsatisfiable *)
  let s_mixed = Subst.of_bindings [ (x, Term.sym "a"); (y, Term.int 3) ] in
  check_bool "symbol vs number is unsat" false (Conj.is_sat (Subst.apply_conj s_mixed eq))

(* ----- parser ----- *)

let flights_src =
  {|
% Example 1.1 of the paper
r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.
r2: cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.
r3: flight(Src, Dst, Time, Cost) :- singleleg(Src, Dst, Time, Cost), Cost > 0, Time > 0.
r4: flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2),
                          T = T1 + T2 + 30, C = C1 + C2.
#query cheaporshort.
|}

let test_parse_flights () =
  let p = Parser.program_of_string flights_src in
  check_int "4 rules" 4 (List.length p.Program.rules);
  check_bool "query set" true (p.Program.query = Some "cheaporshort");
  check_bool "well-formed" true (Program.check p = Ok ());
  check_bool "range restricted" true (Program.is_range_restricted p);
  Alcotest.(check (list string)) "derived" [ "cheaporshort"; "flight" ] (Program.derived p);
  Alcotest.(check (list string)) "edb" [ "singleleg" ] (Program.edb p);
  check_int "flight arity" 4 (Program.arity p "flight");
  check_int "flight body occurrences" 4 (List.length (Program.body_occurrences p "flight"));
  (* r4's constraint part has the two equations *)
  let r4 = List.nth p.Program.rules 3 in
  check_int "r4 constraint atoms" 2 (Conj.size r4.Rule.cstr);
  check_str "r4 label" "r4" r4.Rule.label

let test_parse_expr_args () =
  (* head expression args are flattened: fib(N, X1+X2) *)
  let r = Parser.rule_of_string "fib(N, X1 + X2) :- N > 1, fib(N - 1, X1), fib(N - 2, X2)." in
  check_bool "head args are vars" true (List.for_all Term.is_var r.Rule.head.Literal.args);
  (* three equations (head sum, N-1, N-2) plus N > 1 *)
  check_int "constraints" 4 (Conj.size r.Rule.cstr);
  check_int "body literals" 2 (List.length r.Rule.body)

let test_parse_query () =
  let p = Parser.program_of_string "p(X) :- b(X), X <= 3.\n?- p(X)." in
  (match p.Program.query with
  | Some q ->
      let rules = Program.rules_defining p q in
      check_int "one query rule" 1 (List.length rules)
  | None -> Alcotest.fail "no query");
  check_bool "well-formed" true (Program.check p = Ok ())

let test_parse_constraint_fact () =
  let facts = Parser.facts_of_string "p(X, 5; X <= 3).\nedge(a, b)." in
  check_int "two facts" 2 (List.length facts);
  let f = List.hd facts in
  check_bool "constraint captured" true
    (Conj.implies f.Rule.cstr
       (Conj.of_list [ Atom.le (Linexpr.var (List.hd (Var.Set.elements (Rule.head_vars f)))) (Linexpr.of_int 3) ])
     || Conj.size f.Rule.cstr >= 1)

let test_parse_numbers () =
  let r = Parser.rule_of_string "p(X) :- b(X), X <= 2.5, X >= 0." in
  check_int "two atoms" 2 (Conj.size r.Rule.cstr);
  (* decimal parsed exactly *)
  let c = Conj.of_list [ Atom.le (Linexpr.var (Var.mk "dummy")) (Linexpr.const (Rat.of_ints 5 2)) ] in
  ignore c;
  let r2 = Parser.rule_of_string "p(2.5)." in
  (match r2.Rule.head.Literal.args with
  | [ Term.C (Term.Num q) ] -> check_bool "2.5 exact" true (Rat.equal q (Rat.of_ints 5 2))
  | _ -> Alcotest.fail "expected numeric constant")

let test_parse_errors () =
  let fails s = match Parser.program_of_string s with exception Parser.Error _ -> true | _ -> false in
  check_bool "missing period" true (fails "p(X) :- b(X)");
  check_bool "unbalanced paren" true (fails "p(X :- b(X).");
  check_bool "sym in arith" true (fails "p(X) :- b(X), X <= a.");
  check_bool "nonlinear" true (fails "p(X) :- b(X), X * X <= 4.");
  check_bool "bad char" true (fails "p(X) @ b(X).")

(* error messages name the offending token and carry a position; these are
   regression tests for the old [assert false] paths *)
let test_parse_error_messages () =
  let msg_of s =
    match Parser.program_of_string s with
    | exception Parser.Error m -> m
    | _ -> Alcotest.fail ("expected a parse error for: " ^ s)
  in
  let contains hay needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
    in
    go 0
  in
  let check_msg label src needles =
    let m = msg_of src in
    check_bool (label ^ ": positioned") true (contains m "line 1, column");
    List.iter
      (fun needle ->
        check_bool
          (Printf.sprintf "%s: %S mentions %S" label m needle)
          true (contains m needle))
      needles
  in
  (* a number where a comparison operator belongs: names both sides *)
  check_msg "missing operator" "p(X) :- q(X), X + 1 5."
    [ "expected a comparison operator"; "number 5" ];
  (* bare variable as a body literal ends at '.' *)
  check_msg "bare variable" "p(X) :- q(X), X." [ "expected"; "'.'" ];
  (* EOF is described in words, not as a token dump *)
  check_msg "eof" "p(X) :- q(X)" [ "end of input" ];
  (* the offending identifier is quoted *)
  check_msg "ident in arithmetic" "p(X) :- q(X), X <= abc."
    [ "symbolic constant abc" ];
  (* directives check their argument shape *)
  check_msg "bad #query" "#query 5." [ "predicate name"; "number 5" ]

(* the lexer tests the end of input apart from the character it peeks: a
   NUL byte is an unexpected character, anywhere, and an input that ends
   inside a clause says so, at the position of its end *)
let test_parse_error_end_of_input () =
  List.iter
    (fun (src, expected) ->
      match Parser.program_of_string src with
      | exception Parser.Error m -> Alcotest.(check string) (String.escaped src) expected m
      | _ -> Alcotest.failf "expected a parse error for %S" src)
    [
      ("\000", "line 1, column 1: unexpected character '\\000'");
      ("p(a).\000", "line 1, column 6: unexpected character '\\000'");
      ("p(1, \000).", "line 1, column 6: unexpected character '\\000'");
      ("p(X) :- q(X", "line 1, column 12: expected ')', got end of input");
      ("p(X) :- q(X)", "line 1, column 13: expected '.', got end of input");
      ( "p(X) :- q(X),",
        "line 1, column 14: expected an arithmetic expression, got end of input" );
      ( "p(X) :-\n  q(X), X <=",
        "line 2, column 13: expected an arithmetic expression, got end of input" );
      ("p(1).\nq(2", "line 2, column 4: expected ')', got end of input");
      ( "% a \000 in a comment\np(1).\n?- p(X",
        "line 3, column 7: expected ')', got end of input" );
      ("p(X; X <= 3", "line 1, column 12: expected ')', got end of input");
      ("?", "line 1, column 2: expected '-' after '?'");
      ("p(3.", "line 1, column 5: expected ')', got '.'");
    ]

let test_pp_roundtrip () =
  let p = Parser.program_of_string flights_src in
  let p2 = Parser.program_of_string (Program.to_string p) in
  check_bool "pretty-print parses back equal" true (Program.equal_mod_renaming p p2)

(* the same round trip over every shipped example program, including the
   EDB files (facts parse as body-less rules), and once more through
   [Program.prettify] since that is what [cqlopt rewrite] prints *)
let test_pp_roundtrip_examples () =
  let dir =
    List.find Sys.file_exists [ "../examples/programs"; "examples/programs" ]
  in
  let read path =
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let files = Sys.readdir dir in
  Array.sort compare files;
  let checked = ref 0 in
  Array.iter
    (fun file ->
      if Filename.check_suffix file ".cql" then begin
        let src = read (Filename.concat dir file) in
        if Filename.check_suffix file "_edb.cql" then begin
          let facts = Parser.facts_of_string src in
          let printed = String.concat "\n" (List.map Rule.to_string facts) in
          let facts2 = Parser.facts_of_string printed in
          check_bool (file ^ ": facts survive the round trip") true
            (List.for_all2 Rule.equal_mod_renaming facts facts2)
        end
        else begin
          let p = Parser.program_of_string src in
          let p2 = Parser.program_of_string (Program.to_string p) in
          check_bool (file ^ ": parses back equal") true (Program.equal_mod_renaming p p2);
          check_bool (file ^ ": query preserved") true (p.Program.query = p2.Program.query);
          let p3 = Parser.program_of_string (Program.to_string (Program.prettify p)) in
          check_bool (file ^ ": prettified parses back equal") true
            (Program.equal_mod_renaming p p3)
        end;
        incr checked
      end)
    files;
  check_bool "checked every example file" true (!checked >= 7)

(* ----- rule equality modulo renaming ----- *)

let test_equal_mod_renaming () =
  let r1 = Parser.rule_of_string "p(X, Y) :- q(X, Z), r(Z, Y), X <= 4." in
  let r2 = Parser.rule_of_string "p(A, B) :- r(C, B), q(A, C), A <= 4." in
  check_bool "same modulo names and order" true (Rule.equal_mod_renaming r1 r2);
  let r3 = Parser.rule_of_string "p(A, B) :- r(C, B), q(A, C), A <= 5." in
  check_bool "different constant" false (Rule.equal_mod_renaming r1 r3);
  let r4 = Parser.rule_of_string "p(A, B) :- r(C, B), q(C, A), A <= 4." in
  check_bool "different wiring" false (Rule.equal_mod_renaming r1 r4);
  (* constraints that are equivalent but written differently *)
  let r5 = Parser.rule_of_string "p(X) :- q(X), 2 * X <= 8." in
  let r6 = Parser.rule_of_string "p(Y) :- q(Y), Y <= 4." in
  check_bool "equivalent constraints" true (Rule.equal_mod_renaming r5 r6)

(* ----- dependency graph ----- *)

let test_depgraph () =
  let p =
    Parser.program_of_string
      {|
q(X, Y) :- a1(X, Y), X <= 4.
a1(X, Y) :- b1(X, Z), a2(Z, Y).
a2(X, Y) :- b2(X, Y).
a2(X, Y) :- b2(X, Z), a2(Z, Y).
#query q.
|}
  in
  let g = Depgraph.of_program p in
  check_bool "a2 self-recursive" true (Depgraph.same_scc g "a2" "a2");
  check_bool "a1 not recursive with a2" false (Depgraph.same_scc g "a1" "a2");
  let order = Depgraph.sccs_top_down g in
  let pos name =
    let rec go i = function
      | [] -> -1
      | scc :: rest -> if List.mem name scc then i else go (i + 1) rest
    in
    go 0 order
  in
  check_bool "query first" true (pos "q" < pos "a1");
  check_bool "a1 before a2" true (pos "a1" < pos "a2");
  check_bool "a2 before b2" true (pos "a2" < pos "b2")

let test_restrict_reachable () =
  let p =
    Parser.program_of_string
      {|
q(X) :- p(X).
p(X) :- b(X).
orphan(X) :- b(X).
#query q.
|}
  in
  let p' = Program.restrict_reachable p in
  check_int "orphan dropped" 2 (List.length p'.Program.rules);
  check_bool "orphan gone" true (not (Program.is_derived p' "orphan"))

let test_program_equal_mod_renaming () =
  let a = Parser.program_of_string "p(X) :- q(X).\nq(X) :- b(X), X <= 3." in
  let b = Parser.program_of_string "q(Y) :- b(Y), Y <= 3.\np(Z) :- q(Z)." in
  check_bool "rule order irrelevant" true (Program.equal_mod_renaming a b);
  let c = Parser.program_of_string "q(Y) :- b(Y), Y <= 3.\np(Z) :- b(Z)." in
  check_bool "different program" false (Program.equal_mod_renaming a c)


(* ----- additional parser/structure coverage ----- *)

let test_parse_negative_and_zero_arity () =
  let r = Parser.rule_of_string "p(-3, 0)." in
  (match r.Rule.head.Literal.args with
  | [ Term.C (Term.Num a); Term.C (Term.Num b) ] ->
      check_bool "-3" true (Rat.equal a (Rat.of_int (-3)));
      check_bool "0" true (Rat.equal b Rat.zero)
  | _ -> Alcotest.fail "expected numeric constants");
  let p = Parser.program_of_string "go :- e(X).\ndone :- go.\n#query done." in
  check_int "zero-arity preds" 2 (List.length (Program.derived p))

let test_parse_parenthesized_expr () =
  let r = Parser.rule_of_string "p(X) :- b(X, Y), X <= 2 * (Y + 1)." in
  check_int "one constraint" 1 (Conj.size r.Rule.cstr);
  (* X <= 2Y + 2 *)
  let x = List.hd (List.filter_map (function Term.V v -> Some v | _ -> None) r.Rule.head.Literal.args) in
  ignore x;
  check_bool "parses" true (List.length r.Rule.body = 1)

let test_parse_primed_predicates () =
  (* primed names produced by the rewriter parse back *)
  let p = Parser.program_of_string "flight'(X) :- b(X).\nq(X) :- flight'(X).\n#query q." in
  check_bool "flight' derived" true (Program.is_derived p "flight'")

let test_check_errors () =
  let p = Parser.program_of_string "p(X) :- e(X).\np(X, Y) :- e(X), e(Y)." in
  check_bool "arity clash detected" true (Program.check p <> Ok ());
  let p2 = Program.set_query "nosuch" (Parser.program_of_string "p(X) :- e(X).") in
  check_bool "missing query detected" true (Program.check p2 <> Ok ())

let test_prettify () =
  let r = Parser.rule_of_string "q(X) :- p1(X, Y), p2(Y), X + Y <= 6." in
  (* simulate ugly renaming *)
  let ugly = Rule.rename_apart (Rule.rename_apart r) in
  let pretty = Rule.prettify ugly in
  check_bool "semantics preserved" true (Rule.equal_mod_renaming r pretty);
  (* names are short again *)
  let ok_name v =
    let name = Cql_constr.Var.name v in
    not (String.contains name '\'')
  in
  check_bool "no primes left" true (Cql_constr.Var.Set.for_all ok_name (Rule.vars pretty))

let test_rename_predicate () =
  let p = Parser.program_of_string "q(X) :- a(X).\na(X) :- b(X).\n#query q." in
  let p' = Program.rename_predicate ~old_name:"a" ~new_name:"alpha" p in
  check_bool "head renamed" true (Program.is_derived p' "alpha");
  check_bool "body renamed" true (Program.body_occurrences p' "alpha" <> []);
  check_bool "old gone" false (Program.is_derived p' "a");
  (* renaming the query predicate follows it *)
  let p2 = Program.rename_predicate ~old_name:"q" ~new_name:"query0" p in
  check_bool "query follows" true (p2.Program.query = Some "query0")

let test_grounded_vars () =
  let r = Parser.rule_of_string "p(T, U) :- e(T1, T2), T = T1 + T2 + 30, U = T + V." in
  let g = Rule.grounded_vars r in
  (* the parser freshens clause variables (T becomes T'1): compare base names *)
  let base v =
    let s = Var.name v in
    match String.index_opt s '\'' with Some i -> String.sub s 0 i | None -> s
  in
  let has name = Cql_constr.Var.Set.exists (fun v -> base v = name) g in
  check_bool "T grounded via equality" true (has "T");
  check_bool "U not grounded (V free)" false (has "U");
  check_bool "not range restricted" false (Rule.is_range_restricted r)

let () =
  Alcotest.run "datalog"
    [
      ( "terms",
        [
          Alcotest.test_case "terms" `Quick test_terms;
          Alcotest.test_case "literals" `Quick test_literals;
        ] );
      ( "subst",
        [
          Alcotest.test_case "unify" `Quick test_unify;
          Alcotest.test_case "subst on constraints" `Quick test_subst_conj;
        ] );
      ( "parser",
        [
          Alcotest.test_case "flights program" `Quick test_parse_flights;
          Alcotest.test_case "expression arguments" `Quick test_parse_expr_args;
          Alcotest.test_case "query clause" `Quick test_parse_query;
          Alcotest.test_case "constraint facts" `Quick test_parse_constraint_fact;
          Alcotest.test_case "numbers" `Quick test_parse_numbers;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "error messages" `Quick test_parse_error_messages;
          Alcotest.test_case "NUL byte and end of input" `Quick test_parse_error_end_of_input;
          Alcotest.test_case "pp roundtrip" `Quick test_pp_roundtrip;
          Alcotest.test_case "pp roundtrip examples" `Quick test_pp_roundtrip_examples;
        ] );
      ( "rules",
        [
          Alcotest.test_case "equal mod renaming" `Quick test_equal_mod_renaming;
          Alcotest.test_case "program equal mod renaming" `Quick test_program_equal_mod_renaming;
        ] );
      ( "extra",
        [
          Alcotest.test_case "negatives and zero arity" `Quick test_parse_negative_and_zero_arity;
          Alcotest.test_case "parenthesized expressions" `Quick test_parse_parenthesized_expr;
          Alcotest.test_case "primed predicate names" `Quick test_parse_primed_predicates;
          Alcotest.test_case "check errors" `Quick test_check_errors;
          Alcotest.test_case "prettify" `Quick test_prettify;
          Alcotest.test_case "rename predicate" `Quick test_rename_predicate;
          Alcotest.test_case "grounded vars" `Quick test_grounded_vars;
        ] );
      ( "structure",
        [
          Alcotest.test_case "depgraph" `Quick test_depgraph;
          Alcotest.test_case "restrict reachable" `Quick test_restrict_reachable;
        ] );
    ]
