(* Tests for the paper's core transformations: PTOL/LTOP, fold/unfold,
   predicate-constraint generation/propagation, QRP-constraint
   generation/propagation, and the decidable class of Section 5. *)

open Cql_num
open Cql_constr
open Cql_datalog
open Cql_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let parse = Parser.program_of_string
let conj = Conj.of_list
let n i = Linexpr.of_int i
let v name = Linexpr.var (Var.mk name)
let arg i = Linexpr.var (Var.arg i)

(* ----- PTOL / LTOP (Definitions 2.7 / 2.8) ----- *)

let test_ptol () =
  (* paper: PTOL(flight(S,D,T,C), ($3<=240) v ($4<=150)) = (T<=240) v (C<=150) *)
  let lit =
    Literal.make "flight" [ Term.var (Var.mk "S"); Term.var (Var.mk "D");
                            Term.var (Var.mk "T"); Term.var (Var.mk "C") ]
  in
  let cs = Cset.of_disjuncts [ conj [ Atom.le (arg 3) (n 240) ]; conj [ Atom.le (arg 4) (n 150) ] ] in
  let out = Ptol_ltop.ptol lit cs in
  let expected =
    Cset.of_disjuncts [ conj [ Atom.le (v "T") (n 240) ]; conj [ Atom.le (v "C") (n 150) ] ]
  in
  check_bool "flight example" true (Cset.equiv out expected)

let test_ptol_constants_and_repeats () =
  (* constants: PTOL(p(3, X), $1 <= $2) = (3 <= X) *)
  let lit = Literal.make "p" [ Term.int 3; Term.var (Var.mk "X") ] in
  let out = Ptol_ltop.ptol_conj lit (conj [ Atom.le (arg 1) (arg 2) ]) in
  check_bool "constant substituted" true (Conj.equiv out (conj [ Atom.ge (v "X") (n 3) ]));
  (* repeated vars: PTOL(p(X, X), $1 <= $2) = true *)
  let lit2 = Literal.make "p" [ Term.var (Var.mk "X"); Term.var (Var.mk "X") ] in
  let out2 = Ptol_ltop.ptol_conj lit2 (conj [ Atom.le (arg 1) (arg 2) ]) in
  check_bool "repeat trivializes" true (Conj.is_tt (Conj.simplify out2));
  (* repeated vars, strict: PTOL(p(X, X), $1 < $2) = false *)
  let out3 = Ptol_ltop.ptol_conj lit2 (conj [ Atom.lt (arg 1) (arg 2) ]) in
  check_bool "strict repeat unsat" false (Conj.is_sat out3);
  (* symbolic constants: constraints on their positions are dropped *)
  let lit4 = Literal.make "p" [ Term.sym "a"; Term.var (Var.mk "X") ] in
  let out4 = Ptol_ltop.ptol_conj lit4 (conj [ Atom.le (arg 1) (n 5); Atom.le (arg 2) (n 7) ]) in
  check_bool "sym position dropped" true (Conj.equiv out4 (conj [ Atom.le (v "X") (n 7) ]))

let test_ltop () =
  (* paper: LTOP(flight(S,D,T,C), (T<=240) v (C<=150)) = ($3<=240) v ($4<=150) *)
  let lit =
    Literal.make "flight" [ Term.var (Var.mk "S"); Term.var (Var.mk "D");
                            Term.var (Var.mk "T"); Term.var (Var.mk "C") ]
  in
  let cs = Cset.of_disjuncts [ conj [ Atom.le (v "T") (n 240) ]; conj [ Atom.le (v "C") (n 150) ] ] in
  let out = Ptol_ltop.ltop lit cs in
  let expected = Cset.of_disjuncts [ conj [ Atom.le (arg 3) (n 240) ]; conj [ Atom.le (arg 4) (n 150) ] ] in
  check_bool "flight example" true (Cset.equiv out expected)

let test_ltop_projection () =
  (* LTOP projects away non-argument variables: p(X) with X <= Y & Y <= 3
     gives $1 <= 3 *)
  let lit = Literal.make "p" [ Term.var (Var.mk "X") ] in
  let out = Ptol_ltop.ltop_conj lit (conj [ Atom.le (v "X") (v "Y"); Atom.le (v "Y") (n 3) ]) in
  check_bool "projected" true (Conj.equiv out (conj [ Atom.le (arg 1) (n 3) ]));
  (* repeated variables (Definition 2.8's non-distinct case):
     LTOP(p(X, X), X <= 3) = ($1 <= 3 & $1 = $2) *)
  let lit2 = Literal.make "p" [ Term.var (Var.mk "X"); Term.var (Var.mk "X") ] in
  let out2 = Ptol_ltop.ltop_conj lit2 (conj [ Atom.le (v "X") (n 3) ]) in
  check_bool "repeat gives equality" true
    (Conj.equiv out2 (conj [ Atom.le (arg 1) (n 3); Atom.eq (arg 1) (arg 2) ]));
  (* constants: LTOP(p(5, X), X <= 3) pins $1 = 5 *)
  let lit3 = Literal.make "p" [ Term.int 5; Term.var (Var.mk "X") ] in
  let out3 = Ptol_ltop.ltop_conj lit3 (conj [ Atom.le (v "X") (n 3) ]) in
  check_bool "constant pinned" true
    (Conj.equiv out3 (conj [ Atom.eq (arg 1) (n 5); Atom.le (arg 2) (n 3) ]))

let test_ptol_ltop_roundtrip () =
  (* for a literal over distinct variables, ltop . ptol = id *)
  let lit = Literal.fresh_args "p" 3 in
  let cs =
    Cset.of_disjuncts
      [ conj [ Atom.le (arg 1) (arg 2); Atom.lt (arg 3) (n 7) ]; conj [ Atom.ge (arg 2) (n 0) ] ]
  in
  let back = Ptol_ltop.ltop lit (Ptol_ltop.ptol lit cs) in
  check_bool "roundtrip" true (Cset.equiv back cs)

(* ----- fold/unfold (Appendix A) ----- *)

let test_definition_step () =
  let cset = Cset.of_disjuncts [ conj [ Atom.le (arg 1) (n 4) ]; conj [ Atom.ge (arg 1) (n 10) ] ] in
  let defs = Foldunfold.definition ~primed:"p'" ~orig:"p" ~arity:2 cset in
  check_int "one rule per disjunct" 2 (List.length defs);
  List.iter
    (fun (r : Rule.t) ->
      check_bool "head is primed" true (r.Rule.head.Literal.pred = "p'");
      check_int "single body literal" 1 (List.length r.Rule.body);
      check_bool "body is orig" true ((List.hd r.Rule.body).Literal.pred = "p"))
    defs

let test_unfold () =
  let r = Parser.rule_of_string "q(X) :- p(X, Y), Y <= 2." in
  let defs =
    [ Parser.rule_of_string "p(A, B) :- b1(A, B), A >= B.";
      Parser.rule_of_string "p(A, A) :- b2(A)." ]
  in
  let lit = List.hd r.Rule.body in
  let out = Foldunfold.unfold_literal ~defs r lit in
  check_int "two resolvents" 2 (List.length out);
  let expected1 = Parser.rule_of_string "q(X) :- b1(X, Y), Y <= 2, X >= Y." in
  let expected2 = Parser.rule_of_string "q(X) :- b2(X), X <= 2." in
  check_bool "resolvent 1" true
    (List.exists (Rule.equal_mod_renaming expected1) out);
  check_bool "resolvent 2" true (List.exists (Rule.equal_mod_renaming expected2) out);
  (* unsatisfiable resolvents are dropped *)
  let r2 = Parser.rule_of_string "q(X) :- p(X, Y), Y >= 5, X <= 1." in
  let out2 = Foldunfold.unfold_literal ~defs r2 (List.hd r2.Rule.body) in
  (* b1 branch needs X >= Y >= 5 and X <= 1: unsat; b2 branch needs X = Y: unsat *)
  check_int "both dropped" 0 (List.length out2)

let test_fold () =
  let cset = Cset.of_conj (conj [ Atom.le (arg 1) (n 4) ]) in
  let r = Parser.rule_of_string "q(X) :- p(X), X <= 3." in
  (match Foldunfold.fold_occurrences ~primed:"p'" ~orig:"p" cset r with
  | Some r' -> check_bool "folded" true ((List.hd r'.Rule.body).Literal.pred = "p'")
  | None -> Alcotest.fail "fold should succeed: X <= 3 implies X <= 4");
  let r2 = Parser.rule_of_string "q(X) :- p(X), X <= 5." in
  check_bool "fold fails when not implied" true
    (Foldunfold.fold_occurrences ~primed:"p'" ~orig:"p" cset r2 = None);
  (* disjunctive fold condition: X between 0 and 10 implies (x<=4 | x>=2) *)
  let cset2 = Cset.of_disjuncts [ conj [ Atom.le (arg 1) (n 4) ]; conj [ Atom.ge (arg 1) (n 2) ] ] in
  let r3 = Parser.rule_of_string "q(X) :- p(X), X >= 0, X <= 10." in
  check_bool "disjunctive fold" true
    (Foldunfold.fold_occurrences ~primed:"p'" ~orig:"p" cset2 r3 <> None)

(* ----- Example 4.1 ----- *)

let ex41_src =
  {|
r1: q(X) :- p1(X, Y), p2(Y), X + Y <= 6, X >= 2.
r2: p1(X, Y) :- b1(X, Y).
r3: p2(X) :- b2(X).
#query q.
|}

let test_example_4_1 () =
  let p = parse ex41_src in
  let res = Qrp.gen p in
  check_bool "converged" true res.Qrp.converged;
  check_bool "p1 QRP" true
    (Cset.equiv (Qrp.find res "p1")
       (Cset.of_conj
          (conj [ Atom.le (Linexpr.add (arg 1) (arg 2)) (n 6); Atom.ge (arg 1) (n 2) ])));
  (* the semantic step: Y <= 4 is implied, not syntactically present *)
  check_bool "p2 QRP" true
    (Cset.equiv (Qrp.find res "p2") (Cset.of_conj (conj [ Atom.le (arg 1) (n 4) ])));
  (* the rewritten program is the paper's P' *)
  let p' = Qrp.propagate res p in
  let expected =
    parse
      {|
q(X) :- p1x(X, Y), p2x(Y), X + Y <= 6, X >= 2.
p1x(X, Y) :- X + Y <= 6, X >= 2, b1(X, Y).
p2x(Y) :- Y <= 4, b2(Y).
#query q.
|}
  in
  let renamed =
    Program.rename_predicate ~old_name:"p1'" ~new_name:"p1x"
      (Program.rename_predicate ~old_name:"p2'" ~new_name:"p2x" p')
  in
  check_bool "matches paper's P'" true (Program.equal_mod_renaming renamed expected)

let test_example_4_1_syntactic_baseline () =
  (* the C-transformation-style inference cannot derive Y <= 4 for p2 *)
  let p = parse ex41_src in
  let res = Qrp.gen_syntactic p in
  check_bool "p2 unconstrained syntactically" true (Cset.is_tt (Qrp.find res "p2"));
  (* but it still picks up constraints fully local to a literal *)
  let p2 = parse "q(X) :- p1(X), X <= 3.\np1(X) :- b(X).\n#query q." in
  let res2 = Qrp.gen_syntactic p2 in
  check_bool "local constraint found" true
    (Cset.equiv (Qrp.find res2 "p1") (Cset.of_conj (conj [ Atom.le (arg 1) (n 3) ])))

(* ----- Example 4.2 / 5.1 ----- *)

let ex42_src =
  {|
r1: q(X, Y) :- a(X, Y), X <= 10.
r2: a(X, Y) :- p(X, Y), Y <= X.
r3: a(X, Y) :- a(X, Z), a(Z, Y).
#query q.
|}

let test_example_4_2 () =
  let p = parse ex42_src in
  (* plain QRP generation infers nothing for a (the paper's point) *)
  let qres = Qrp.gen p in
  check_bool "QRP alone trivial" true (Cset.is_tt (Qrp.find qres "a"));
  (* predicate constraints find $2 <= $1 *)
  let pres = Pred_constraints.gen p in
  check_bool "pred converged" true pres.Pred_constraints.converged;
  check_bool "a pred constraint" true
    (Cset.equiv (Pred_constraints.find pres "a") (Cset.of_conj (conj [ Atom.le (arg 2) (arg 1) ])));
  check_bool "q pred constraint" true
    (Cset.equiv (Pred_constraints.find pres "q")
       (Cset.of_conj (conj [ Atom.le (arg 1) (n 10); Atom.le (arg 2) (arg 1) ])));
  (* after propagating them, QRP generation reaches the minimum *)
  let p1 = Pred_constraints.propagate pres p in
  let qres1 = Qrp.gen p1 in
  check_bool "minimum QRP for a" true
    (Cset.equiv (Qrp.find qres1 "a")
       (Cset.of_conj (conj [ Atom.le (arg 1) (n 10); Atom.le (arg 2) (arg 1) ])))

let test_example_5_1_decidable () =
  let p1 =
    parse
      {|
r1: q(X, Y) :- a(X, Y), X <= 10, Y <= X.
r2: a(X, Y) :- p(X, Y), Y <= X.
r3: a(X, Y) :- a(X, Z), Z <= X, a(Z, Y), Y <= Z.
#query q.
|}
  in
  check_bool "in decidable class" true (Decidable.in_class p1);
  (* k = 2: at most 2*4+8 = 16 simple constraints, 2^16 disjuncts *)
  check_int "simple constraint bound" 16 (Decidable.simple_constraints_bound 2);
  check_bool "disjunct bound" true
    (Bigint.equal (Decidable.disjunct_bound 2) (Bigint.of_int 65536));
  let qres = Qrp.gen p1 in
  check_bool "terminates" true qres.Qrp.converged;
  (* the paper: terminates in just two iterations *)
  check_bool "fast convergence" true (qres.Qrp.iterations <= 3);
  check_bool "bound respected" true
    (Bigint.compare (Bigint.of_int qres.Qrp.iterations) (Decidable.iteration_bound p1) < 0);
  (* programs with arithmetic are outside the class *)
  let flights = parse "f(T) :- g(T1, T2), T = T1 + T2.\n#query f." in
  check_bool "arith not in class" false (Decidable.in_class flights);
  let scaled = parse "f(T) :- g(T), 2 * T <= 3.\n#query f." in
  check_bool "scaled var not in class" false (Decidable.in_class scaled)

(* ----- Example 4.3 (flights) ----- *)

let flights_src =
  {|
r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.
r2: cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.
r3: flight(Src, Dst, Time, Cost) :- singleleg(Src, Dst, Time, Cost), Cost > 0, Time > 0.
r4: flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2),
                          T = T1 + T2 + 30, C = C1 + C2.
#query cheaporshort.
|}

let flight_qrp_expected =
  Cset.of_disjuncts
    [
      conj [ Atom.gt (arg 3) (n 0); Atom.le (arg 3) (n 240); Atom.gt (arg 4) (n 0) ];
      conj [ Atom.gt (arg 3) (n 0); Atom.gt (arg 4) (n 0); Atom.le (arg 4) (n 150) ];
    ]

let test_example_4_3_constraints () =
  let p = parse flights_src in
  let _, report = Rewrite.constraint_rewrite p in
  let pres = Option.get report.Rewrite.pred_constraints in
  let qres = Option.get report.Rewrite.qrp_constraints in
  check_bool "flight pred constraint ($3>0 & $4>0)" true
    (Cset.equiv (Pred_constraints.find pres "flight")
       (Cset.of_conj (conj [ Atom.gt (arg 3) (n 0); Atom.gt (arg 4) (n 0) ])));
  check_bool "cheaporshort pred constraint" true
    (Cset.equiv (Pred_constraints.find pres "cheaporshort") flight_qrp_expected);
  check_bool "flight minimum QRP" true (Cset.equiv (Qrp.find qres "flight") flight_qrp_expected)

let test_example_4_3_program () =
  let p = parse flights_src in
  let p', _ = Rewrite.constraint_rewrite p in
  (* the paper's P' of Example 4.3 *)
  let expected =
    parse
      {|
cheaporshort(S, D, T, C) :- flightx(S, D, T, C), T > 0, T <= 240, C > 0.
cheaporshort(S, D, T, C) :- flightx(S, D, T, C), T > 0, C > 0, C <= 150.
cheaporshort(S, D, T, C) :- flightx(S, D, T, C), T > 0, T <= 240, C > 0, C <= 150.
flightx(Src, Dst, Time, Cost) :- Time > 0, Time <= 240, singleleg(Src, Dst, Time, Cost), Cost > 0.
flightx(S, D, T, C) :- T > 0, T <= 240, C > 0, flightx(S, D1, T1, C1), flightx(D1, D, T2, C2),
                       T1 > 0, T2 > 0, T = T1 + T2 + 30, C1 > 0, C2 > 0, C = C1 + C2.
flightx(Src, Dst, Time, Cost) :- Time > 0, Cost <= 150, singleleg(Src, Dst, Time, Cost), Cost > 0.
flightx(S, D, T, C) :- T > 0, C > 0, C <= 150, flightx(S, D1, T1, C1), flightx(D1, D, T2, C2),
                       T1 > 0, T2 > 0, T = T1 + T2 + 30, C1 > 0, C2 > 0, C = C1 + C2.
#query cheaporshort.
|}
  in
  let renamed = Program.rename_predicate ~old_name:"flight'" ~new_name:"flightx" p' in
  check_bool "matches paper's Example 4.3 P'" true (Program.equal_mod_renaming renamed expected)

let singleleg_edb seed m =
  (* deterministic synthetic singleleg EDB over m cities in a cycle plus
     chords; times/costs straddle the 240/150 thresholds *)
  let rng = ref seed in
  let next () =
    rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
    !rng
  in
  List.init m (fun i ->
      let src = Printf.sprintf "c%d" i and dst = Printf.sprintf "c%d" ((i + 1) mod m) in
      let time = 30 + (next () mod 300) in
      let cost = 20 + (next () mod 250) in
      Cql_eval.Fact.ground "singleleg"
        [ Term.Sym src; Term.Sym dst; Term.Num (Rat.of_int time); Term.Num (Rat.of_int cost) ])

let test_example_4_3_evaluation () =
  let p = parse flights_src in
  let p', _ = Rewrite.constraint_rewrite p in
  let edb = singleleg_edb 7 6 in
  let budget = 2000 in
  let res = Cql_eval.Engine.run ~max_derivations:budget ~max_iterations:12 p ~edb in
  let res' = Cql_eval.Engine.run ~max_derivations:budget ~max_iterations:12 p' ~edb in
  (* both compute only ground facts (Theorem 4.4 part 1) *)
  check_bool "P ground" true (Cql_eval.Engine.all_ground res);
  check_bool "P' ground" true (Cql_eval.Engine.all_ground res');
  (* no flight' fact violates the QRP constraint *)
  List.iter
    (fun f ->
      let t = Option.get (Cql_eval.Fact.ground_value f 3) in
      let c = Option.get (Cql_eval.Fact.ground_value f 4) in
      check_bool "flight' fact is constraint-relevant" false
        (Rat.compare t (Rat.of_int 240) > 0 && Rat.compare c (Rat.of_int 150) > 0))
    (Cql_eval.Engine.facts_of res' "flight'");
  (* P computes flight facts outside the QRP constraint on this EDB *)
  check_bool "P computes irrelevant flights" true
    (List.exists
       (fun f ->
         let t = Option.get (Cql_eval.Fact.ground_value f 3) in
         let c = Option.get (Cql_eval.Fact.ground_value f 4) in
         Rat.compare t (Rat.of_int 240) > 0 && Rat.compare c (Rat.of_int 150) > 0)
       (Cql_eval.Engine.facts_of res "flight"));
  (* same answers (Theorem 4.3) *)
  let ans = Cql_eval.Engine.facts_of res "cheaporshort" in
  let ans' = Cql_eval.Engine.facts_of res' "cheaporshort" in
  check_bool "same answers" true
    (List.for_all (fun f -> List.exists (Cql_eval.Fact.equal f) ans') ans
    && List.for_all (fun f -> List.exists (Cql_eval.Fact.equal f) ans) ans');
  (* P' computes a subset of the facts of P (Theorem 4.4 part 2) *)
  let flights' = Cql_eval.Engine.facts_of res' "flight'" in
  let flights = Cql_eval.Engine.facts_of res "flight" in
  check_bool "subset of facts" true
    (List.for_all
       (fun f' ->
         let as_flight =
           Cql_eval.Fact.make "flight" f'.Cql_eval.Fact.args (Cql_eval.Fact.cstr f')
         in
         List.exists (Cql_eval.Fact.equal as_flight) flights)
       flights')

(* property: rewritten program is query-equivalent on random chain EDBs *)
let prop_rewrite_equivalent =
  QCheck.Test.make ~name:"constraint_rewrite preserves answers (flights)" ~count:20
    (QCheck.pair (QCheck.int_range 1 1000) (QCheck.int_range 2 5)) (fun (seed, m) ->
      let p = parse flights_src in
      let p', _ = Rewrite.constraint_rewrite p in
      let edb = singleleg_edb seed m in
      let res = Cql_eval.Engine.run ~max_iterations:8 ~max_derivations:1500 p ~edb in
      let res' = Cql_eval.Engine.run ~max_iterations:8 ~max_derivations:1500 p' ~edb in
      let ans = Cql_eval.Engine.facts_of res "cheaporshort" in
      let ans' = Cql_eval.Engine.facts_of res' "cheaporshort" in
      List.for_all (fun f -> List.exists (Cql_eval.Fact.equal f) ans') ans
      && List.for_all (fun f -> List.exists (Cql_eval.Fact.equal f) ans) ans')

(* ----- consecutive application redundancy (Theorems 7.4 / 7.5) ----- *)

let test_consecutive_redundant () =
  let p = parse flights_src in
  (* pred twice: second application infers equivalent constraints *)
  let p1, r1 = Pred_constraints.gen_prop p in
  let r2 = Pred_constraints.gen p1 in
  List.iter
    (fun (pred, c) ->
      check_bool (Printf.sprintf "pred constraint stable for %s" pred) true
        (Cset.equiv c (Pred_constraints.find r2 pred)))
    r1.Pred_constraints.constraints;
  (* qrp twice: the constraints inferred on the rewritten program are
     equivalent for the (renamed) predicates *)
  let q1 = Qrp.gen p in
  let prog2 = Qrp.propagate q1 p in
  let q2 = Qrp.gen prog2 in
  check_bool "flight' keeps its QRP constraint" true
    (Cset.equiv (Qrp.find q1 "flight") (Qrp.find q2 "flight'"))


let d2_like_src =
  "q(X, Y) :- a1(X, Y).\na1(X, Y) :- b1(X, Z), X <= 4, a2(Z, Y).\na2(X, Y) :- b2(X, Y).\n#query q."

(* ----- additional transformation coverage ----- *)

let test_unreachable_pred_dropped () =
  (* a derived predicate unreachable from the query gets QRP false and its
     rules disappear from the rewritten program *)
  let p = parse "q(X) :- a(X), X <= 3.\na(X) :- b(X).\norphan(X) :- b(X), X >= 100.\n#query q." in
  let res = Qrp.gen p in
  check_bool "orphan has ff QRP" true (Cset.is_ff (Qrp.find res "orphan"));
  let p2 = Qrp.propagate res p in
  check_bool "orphan dropped" false (Program.is_derived p2 "orphan")

let test_edb_predicates_true () =
  (* database predicates enter the fixpoint as true, so a predicate defined
     only from one is unconstrained *)
  let p = parse "q(X) :- a(X).\na(X) :- b(X).\n#query q." in
  let res0 = Pred_constraints.gen p in
  check_bool "without input trivial" true (Cset.is_tt (Pred_constraints.find res0 "a"))

let test_inline_seed () =
  let p = parse "q(X) :- a(X).\na(X) :- b(X).\n?- q(X)." in
  let adorned = Adorn.program ~query_adornment:"f" p in
  let pmg = Magic.templates_bf adorned in
  let seeds =
    List.filter (fun (r : Rule.t) -> r.Rule.label = "seed") pmg.Program.rules
  in
  check_int "one seed" 1 (List.length seeds);
  let inlined = Magic.inline_seed pmg in
  check_bool "seed gone" true
    (List.for_all (fun (r : Rule.t) -> r.Rule.label <> "seed") inlined.Program.rules);
  (* evaluation agrees with the guarded version *)
  let edb = List.map Cql_eval.Fact.of_fact_rule (Parser.facts_of_string "b(1). b(2).") in
  let r1 = Cql_eval.Engine.run pmg ~edb in
  let r2 = Cql_eval.Engine.run inlined ~edb in
  let q = Option.get pmg.Program.query in
  check_int "same answers" (List.length (Cql_eval.Engine.facts_of r1 q))
    (List.length (Cql_eval.Engine.facts_of r2 q))

let test_theorem_7_9_redundancy () =
  (* pred,qrp,pred,mg computes the same facts as pred,qrp,mg *)
  let p = parse flights_src in
  let mg = Rewrite.Magic { adornment = "ffff"; constraint_magic = true } in
  let a, _ = Rewrite.sequence [ Rewrite.Pred; Rewrite.Qrp; Rewrite.Pred; mg ] p in
  let b, _ = Rewrite.sequence [ Rewrite.Pred; Rewrite.Qrp; mg ] p in
  let edb = singleleg_edb 31 5 in
  let run prog = Cql_eval.Engine.run ~max_iterations:10 ~max_derivations:20_000 prog ~edb in
  let ra = run a and rb = run b in
  check_int "same fact totals (Theorem 7.9)"
    (Cql_eval.Engine.total_idb_facts rb ~edb)
    (Cql_eval.Engine.total_idb_facts ra ~edb)

let test_magic_no_constraint_magic () =
  (* plain magic drops the constraints from magic rules (rule mr1' style) *)
  let p = parse d2_like_src in
  let adorned = Adorn.program ~query_adornment:"bf" p in
  let cm = Magic.templates_bf ~constraint_magic:true adorned in
  let plain = Magic.templates_bf ~constraint_magic:false adorned in
  let magic_rule_cstrs prog =
    List.filter
      (fun (r : Rule.t) ->
        Magic.is_magic r.Rule.head.Literal.pred
        && (not (Rule.is_fact r))
        && not (Conj.is_tt r.Rule.cstr))
      prog.Program.rules
  in
  check_bool "constraint magic keeps constraints" true (magic_rule_cstrs cm <> []);
  check_int "plain magic drops them" 0 (List.length (magic_rule_cstrs plain))

(* random program equivalence: constraint_rewrite preserves query answers on
   randomly generated layered programs *)
let random_program_and_edb seed =
  let rng = ref (seed + 17) in
  let next m =
    rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
    !rng mod m
  in
  let bound1 = 2 + next 6 and bound2 = 2 + next 6 in
  let op1 = if next 2 = 0 then "<=" else "<" in
  let recursive = next 2 = 0 in
  let src =
    Printf.sprintf
      "q(X) :- a(X), X %s %d.\na(X) :- b(X, Y), Y <= %d, c(Y).\n%sc(X) :- d(X).\n#query q."
      op1 bound1 bound2
      (if recursive then "c(X) :- c(Y), X = Y, X <= 1.\n" else "")
  in
  let edb =
    String.concat "\n"
      (List.init 8 (fun i ->
           Printf.sprintf "b(%d, %d). d(%d)." (next 12) (next 12) i))
  in
  (parse src, List.map Cql_eval.Fact.of_fact_rule (Parser.facts_of_string edb))

let prop_random_rewrite_equivalent =
  QCheck.Test.make ~name:"constraint_rewrite preserves answers (random programs)" ~count:25
    (QCheck.int_range 0 10_000) (fun seed ->
      let p, edb = random_program_and_edb seed in
      let p', _ = Rewrite.constraint_rewrite ~max_iters:10 p in
      let r1 = Cql_eval.Engine.run ~max_iterations:8 ~max_derivations:3000 p ~edb in
      let r2 = Cql_eval.Engine.run ~max_iterations:8 ~max_derivations:3000 p' ~edb in
      let ans r = List.sort compare (List.map Cql_eval.Fact.to_string (Cql_eval.Engine.facts_of r "q")) in
      ans r1 = ans r2)

let prop_random_rewrite_fewer_facts =
  QCheck.Test.make ~name:"rewritten program computes no more facts" ~count:25
    (QCheck.int_range 0 10_000) (fun seed ->
      let p, edb = random_program_and_edb seed in
      let p', _ = Rewrite.constraint_rewrite ~max_iters:10 p in
      let r1 = Cql_eval.Engine.run ~max_iterations:8 ~max_derivations:3000 p ~edb in
      let r2 = Cql_eval.Engine.run ~max_iterations:8 ~max_derivations:3000 p' ~edb in
      QCheck.assume
        ((Cql_eval.Engine.stats r1).Cql_eval.Engine.reached_fixpoint
        && (Cql_eval.Engine.stats r2).Cql_eval.Engine.reached_fixpoint);
      Cql_eval.Engine.total_idb_facts r2 ~edb <= Cql_eval.Engine.total_idb_facts r1 ~edb)


(* ----- Simplify ----- *)

let test_simplify_rule () =
  (* redundant atom dropped *)
  let r = Parser.rule_of_string "q(X) :- p(X), X <= 3, X <= 5." in
  (match Simplify.rule r with
  | Some r' -> check_int "one atom left" 1 (Conj.size r'.Rule.cstr)
  | None -> Alcotest.fail "rule should survive");
  (* unsatisfiable rule dropped *)
  let dead = Parser.rule_of_string "q(X) :- p(X), X <= 1, X >= 2." in
  check_bool "dead rule dropped" true (Simplify.rule dead = None)

let test_rule_subsumption () =
  let general = Parser.rule_of_string "q(X) :- p(X), X <= 5." in
  let narrow = Parser.rule_of_string "q(X) :- p(X), r(X), X <= 3." in
  check_bool "narrow subsumed by general" true (Simplify.rule_subsumed_by ~general narrow);
  check_bool "general not subsumed by narrow" false
    (Simplify.rule_subsumed_by ~general:narrow general);
  (* different head wiring is not subsumed *)
  let other = Parser.rule_of_string "q(Y) :- p(X), r(X, Y), X <= 3." in
  check_bool "different wiring" false (Simplify.rule_subsumed_by ~general other);
  (* general with an existential body var: q(X) :- p(X, Z) subsumes
     q(X) :- p(X, W), W <= 2 *)
  let g2 = Parser.rule_of_string "q(X) :- p(X, Z)." in
  let n2 = Parser.rule_of_string "q(X) :- p(X, W), W <= 2." in
  check_bool "existential body var" true (Simplify.rule_subsumed_by ~general:g2 n2)

let test_simplify_program () =
  let p =
    parse
      {|
q(X) :- p(X), X <= 5.
q(X) :- p(X), X <= 3.
q(X) :- p(X), X <= 1, X >= 2.
p(X) :- b(X).
#query q.
|}
  in
  let p' = Simplify.program p in
  (* the X<=3 rule is subsumed by the X<=5 one; the dead rule disappears *)
  check_int "two rules left" 2 (List.length p'.Program.rules);
  (* semantics preserved *)
  let edb = List.map Cql_eval.Fact.of_fact_rule (Parser.facts_of_string "b(0). b(2). b(4). b(9).") in
  let r1 = Cql_eval.Engine.run p ~edb in
  let r2 = Cql_eval.Engine.run p' ~edb in
  check_int "same answers" (List.length (Cql_eval.Engine.facts_of r1 "q"))
    (List.length (Cql_eval.Engine.facts_of r2 "q"))

(* ----- rewritten programs parse back ----- *)

let read_file path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* [cqlopt rewrite --optimal] and [--steps pred,qrp,mg] print programs the
   parser reads back, which compute the original's answers (at the golden
   file's fixpoint budget of 10, which keeps fib's rewrite short).  Three
   programs the generator never draws join the shipped examples: a 0-ary
   query, whose magic predicate is 0-ary too; unlabelled rules, whose
   copies must not carry a bare ['1] or [_1] label; and a query whose name
   reads as a bcf-adorned one, which must not keep the program from being
   adorned. *)
let test_rewrites_parse_back () =
  let dir = List.find Sys.file_exists [ "../examples/programs"; "examples/programs" ] in
  let examples =
    List.filter_map
      (fun file ->
        if Filename.check_suffix file "_edb.cql" || not (Filename.check_suffix file ".cql") then
          None
        else
          let path = Filename.concat dir file in
          let edb_path = Filename.chop_suffix path ".cql" ^ "_edb.cql" in
          Some
            ( file,
              read_file path,
              if Sys.file_exists edb_path then read_file edb_path else "" ))
      (List.sort compare (Array.to_list (Sys.readdir dir)))
  in
  let programs =
    [
      ("0-ary query", "a(X) :- b(X), X <= 3.\n?- a(1).", "b(1). b(5).");
      ( "unlabelled rules",
        "p(X) :- e(X), X <= 2.\np(X) :- e(X), X >= 8.\nq(X) :- p(X), X >= 1.\n#query q.",
        "e(0). e(1). e(2). e(5). e(9)." );
      ( "adorned-looking query",
        "big_c(X) :- r(X).\nr(X) :- e(X), X >= 2.\n#query big_c.",
        "e(1). e(3)." );
    ]
    @ examples
  in
  List.iter
    (fun (name, src, edb_src) ->
      let p = parse src in
      let edb = List.map Cql_eval.Fact.of_fact_rule (Parser.facts_of_string edb_src) in
      let adornment = String.make (Program.arity p (Option.get p.Program.query)) 'f' in
      let mg = Rewrite.Magic { adornment; constraint_magic = true } in
      List.iter
        (fun (how, rewrite) ->
          let printed = Program.to_string (Program.prettify (fst (rewrite p))) in
          match parse printed with
          | exception Parser.Error msg ->
              Alcotest.failf "%s, %s: %s in\n%s" name how msg printed
          | rewritten -> (
              match Cql_gen.Harness.check_rewrite ~original:p ~rewritten ~edb () with
              | Cql_gen.Harness.Fails (oracle, detail) ->
                  Alcotest.failf "%s, %s: %s oracle: %s" name how
                    (Cql_gen.Harness.oracle_name oracle) detail
              | Agree | Truncated -> ()))
        [
          ("optimal", Rewrite.optimal ~max_iters:10 ~adornment);
          ("pred,qrp,mg", Rewrite.sequence ~max_iters:10 [ Rewrite.Pred; Rewrite.Qrp; mg ]);
        ])
    programs

(* ----- memory ----- *)

(* Rewriting from cleared caches leaves nothing behind: the live heap after
   1,000 rewrites of generated programs matches the one after 100.  A term
   table that grows with the work done fails this, as the weak interning
   sets that once held every atom and conjunction did (one slot per term,
   freed only by a later major cycle). *)
let test_rewrites_leave_no_residue () =
  let module G = Cql_gen.Generate in
  let rng = Cql_gen.Rng.create 3 in
  let rec draw config =
    match G.case (Cql_gen.Rng.split rng) config with
    | p, _ -> p
    | exception G.Exhausted _ -> draw config
  in
  let corpus =
    Array.of_list
      (List.concat_map
         (fun mode -> List.init 40 (fun _ -> (mode, draw (G.default mode))))
         [ G.Decidable; G.Linear; G.Int ])
  in
  let rewrite i =
    let mode, p = corpus.(i mod Array.length corpus) in
    Memo.clear_all ();
    Cdomain.with_domain (if mode = G.Int then Cdomain.Z else Cdomain.Q) @@ fun () ->
    match p.Program.query with
    | None -> ()
    | Some q -> (
        let adornment = String.make (Program.arity p q) 'f' in
        try ignore (Rewrite.optimal ~max_iters:20 ~adornment p)
        with Invalid_argument _ | Failure _ -> ())
  in
  let live_words () =
    Memo.clear_all ();
    Gc.full_major ();
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  (* a traced run keeps its spans, which would grow with the work too *)
  let traced = Cql_obs.Obs.enabled () in
  Cql_obs.Obs.set_enabled false;
  Fun.protect ~finally:(fun () -> Cql_obs.Obs.set_enabled traced) @@ fun () ->
  for i = 0 to 99 do
    rewrite i
  done;
  let at_100 = live_words () in
  for i = 100 to 999 do
    rewrite i
  done;
  let at_1000 = live_words () in
  (* the corpus stays live through both readings *)
  ignore (Sys.opaque_identity corpus);
  check_bool
    (Printf.sprintf "live words %d after 100 rewrites, %d after 1,000" at_100 at_1000)
    true
    (abs (at_1000 - at_100) < 4_096)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "core"
    [
      ( "ptol-ltop",
        [
          Alcotest.test_case "ptol flight example" `Quick test_ptol;
          Alcotest.test_case "ptol constants/repeats/syms" `Quick test_ptol_constants_and_repeats;
          Alcotest.test_case "ltop flight example" `Quick test_ltop;
          Alcotest.test_case "ltop projection" `Quick test_ltop_projection;
          Alcotest.test_case "roundtrip" `Quick test_ptol_ltop_roundtrip;
        ] );
      ( "foldunfold",
        [
          Alcotest.test_case "definition" `Quick test_definition_step;
          Alcotest.test_case "unfold" `Quick test_unfold;
          Alcotest.test_case "fold" `Quick test_fold;
        ] );
      ( "examples",
        [
          Alcotest.test_case "Example 4.1" `Quick test_example_4_1;
          Alcotest.test_case "Example 4.1 syntactic baseline" `Quick test_example_4_1_syntactic_baseline;
          Alcotest.test_case "Example 4.2" `Quick test_example_4_2;
          Alcotest.test_case "Example 5.1 decidable class" `Quick test_example_5_1_decidable;
          Alcotest.test_case "Example 4.3 constraints" `Quick test_example_4_3_constraints;
          Alcotest.test_case "Example 4.3 program" `Quick test_example_4_3_program;
          Alcotest.test_case "Example 4.3 evaluation" `Slow test_example_4_3_evaluation;
          Alcotest.test_case "consecutive applications redundant" `Quick test_consecutive_redundant;
        ] );
      ( "simplify",
        [
          Alcotest.test_case "rule simplification" `Quick test_simplify_rule;
          Alcotest.test_case "rule subsumption" `Quick test_rule_subsumption;
          Alcotest.test_case "program simplification" `Quick test_simplify_program;
        ] );
      ( "extra",
        [
          Alcotest.test_case "unreachable pred dropped" `Quick test_unreachable_pred_dropped;
          Alcotest.test_case "EDB constraints input" `Quick test_edb_predicates_true;
          Alcotest.test_case "inline_seed" `Quick test_inline_seed;
          Alcotest.test_case "Theorem 7.9 redundancy" `Slow test_theorem_7_9_redundancy;
          Alcotest.test_case "plain vs constraint magic" `Quick test_magic_no_constraint_magic;
          Alcotest.test_case "rewrites parse back" `Quick test_rewrites_parse_back;
        ] );
      ( "memory",
        [
          Alcotest.test_case "rewrites leave no residue" `Quick test_rewrites_leave_no_residue;
        ] );
      ( "properties",
        qt
          [
            prop_rewrite_equivalent;
            prop_random_rewrite_equivalent;
            prop_random_rewrite_fewer_facts;
          ] );
    ]
