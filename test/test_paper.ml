(* End-to-end reproduction tests for the paper's worked examples and tables:
   Magic Templates (Appendix B), Tables 1 and 2 (Examples 1.2/4.4), the GMT
   grounding step (Example 6.1), the non-confluence examples (7.1/7.2, D.1/
   D.2) and the optimal ordering (Theorems 7.8/7.10). *)

open Cql_num
open Cql_constr
open Cql_datalog
open Cql_eval
open Cql_core
module Reference = Cql_gen.Reference
module Harness = Cql_gen.Harness

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let parse = Parser.program_of_string
let edb_of s = List.map Fact.of_fact_rule (Parser.facts_of_string s)

(* ----- adornment and magic templates ----- *)

let test_adorn_bf () =
  let p = parse {|
q(X, Y) :- a1(X, Y).
a1(X, Y) :- b1(X, Z), a2(Z, Y).
a2(X, Y) :- b2(X, Y).
a2(X, Y) :- b2(X, Z), a2(Z, Y).
#query q.
|} in
  let adorned = Adorn.program ~query_adornment:"bf" p in
  let derived = Program.derived adorned in
  check_bool "q_bf" true (List.mem "q_bf" derived);
  check_bool "a1_bf" true (List.mem "a1_bf" derived);
  (* a2's first argument is grounded by b1/b2 to its left *)
  check_bool "a2_bf" true (List.mem "a2_bf" derived);
  check_bool "no a2_ff" true (not (List.mem "a2_ff" derived))

let test_adorn_equality_grounding () =
  (* T = T1 + T2 grounds T once T1, T2 are bound *)
  let p = parse {|
q(T) :- e(T1, T2), sum(T1, T2, T).
sum(X, Y, Z) :- Z = X + Y, ok(X, Y).
#query q.
|} in
  let adorned = Adorn.program ~query_adornment:"f" p in
  check_bool "sum adorned bbf" true (List.mem "sum_bbf" (Program.derived adorned))

let test_magic_flights_bound_query () =
  (* the motivating query: cheaporshort(madison, seattle, T, C) *)
  let p = parse {|
r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.
r2: cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.
r3: flight(Src, Dst, Time, Cost) :- singleleg(Src, Dst, Time, Cost), Cost > 0, Time > 0.
r4: flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2),
                          T = T1 + T2 + 30, C = C1 + C2.
?- cheaporshort(madison, seattle, T, C).
|} in
  let adorned = Adorn.program ~query_adornment:"ff" p in
  (* cheaporshort is called with its two city arguments bound *)
  check_bool "cheaporshort_bbff" true (List.mem "cheaporshort_bbff" (Program.derived adorned));
  let pmg = Magic.templates_bf adorned in
  (* the magic predicate for flight_bbff has arity 2 (bound args only):
     mrl': m_flight(S, D) :- m_cheaporshort(S, D) *)
  check_int "m_flight arity" 2 (Program.arity pmg "m_flight_bbff");
  (* evaluation computes only ground facts and only madison-reachable ones *)
  let edb =
    edb_of
      {|
singleleg(madison, chicago, 50, 100).
singleleg(chicago, seattle, 100, 80).
singleleg(paris, rome, 90, 120).
|}
  in
  let res = Engine.run pmg ~edb in
  check_bool "ground" true (Engine.all_ground res);
  check_bool "answer found" true (Engine.facts_of res "cheaporshort_bbff" <> []);
  (* the paris-rome flight is never explored *)
  check_bool "irrelevant city pruned" true
    (List.for_all
       (fun f -> f.Fact.args.(0) <> Fact.Psym "paris")
       (Engine.facts_of res "flight_bbff"))

let test_magic_vs_plain_fact_counts () =
  (* magic restricts computation to facts reachable from the query constant *)
  let p = parse {|
path(X, Y) :- edge(X, Y).
path(X, Z) :- edge(X, Y), path(Y, Z).
?- path(a, Y).
|} in
  let edb = edb_of "edge(a, b). edge(b, c). edge(x, y). edge(y, z). edge(z, x)." in
  let plain = Engine.run p ~edb in
  let adorned = Adorn.program ~query_adornment:"f" p in
  let pmg = Magic.templates_bf adorned in
  let magic = Engine.run pmg ~edb in
  let plain_paths = List.length (Engine.facts_of plain "path") in
  let magic_paths = List.length (Engine.facts_of magic "path_bf") in
  check_bool "magic computes fewer paths" true (magic_paths < plain_paths);
  (* only paths whose source is reachable from a: a->b, a->c, b->c *)
  check_int "only a-reachable paths" 3 magic_paths

(* ----- Tables 1 and 2 (Examples 1.2 / 4.4) ----- *)

let fib_src =
  {|
r1: fib(0, 1).
r2: fib(1, 1).
r3: fib(N, X1 + X2) :- N > 1, fib(N - 1, X1), fib(N - 2, X2).
?- fib(N, 5).
|}

let fib_magic () = Magic.inline_seed (Magic.templates_complete (parse fib_src))

let fib_magic_constrained query_value =
  let src = Printf.sprintf {|
r1: fib(0, 1).
r2: fib(1, 1).
r3: fib(N, X1 + X2) :- N > 1, fib(N - 1, X1), fib(N - 2, X2).
?- fib(N, %d).
|} query_value in
  let p = parse src in
  let cset = Cset.of_conj (Conj.of_list [ Atom.ge (Linexpr.var (Var.arg 2)) (Linexpr.of_int 1) ]) in
  let res : Pred_constraints.result =
    { Pred_constraints.constraints = [ ("fib", cset) ]; iterations = 1; converged = true }
  in
  Magic.inline_seed (Magic.templates_complete (Pred_constraints.propagate res p))

let fib_value res n =
  List.exists
    (fun f ->
      Fact.ground_value f 1 = Some (Rat.of_int n)
      && Fact.pred f = "fib")
    (Engine.facts_of res "fib")

let test_table1 () =
  (* Pfib^mg: the evaluation does NOT terminate; the answer appears by
     iteration 7 and constraint facts are computed for m_fib *)
  let pmg = fib_magic () in
  let res = Engine.run ~max_iterations:8 ~traced:true pmg ~edb:[] in
  check_bool "does not terminate" false (Engine.stats res).Engine.reached_fixpoint;
  (* the answer fib(4, 5) is computed at iteration 7 *)
  let t47 =
    List.find_opt
      (fun (t : Engine.trace_entry) ->
        (not t.Engine.subsumed)
        && Fact.pred t.Engine.fact = "fib"
        && Fact.ground_value t.Engine.fact 1 = Some (Rat.of_int 4))
      (Engine.trace res)
  in
  (match t47 with
  | Some t -> check_int "fib(4,5) at iteration 7" 7 t.Engine.iteration
  | None -> Alcotest.fail "fib(4,5) not derived");
  (* constraint facts are generated for the magic predicate (m_fib(N1,V1;
     N1 > 0) at iteration 1) *)
  let m1 =
    List.find_opt
      (fun (t : Engine.trace_entry) ->
        t.Engine.iteration = 1 && Fact.pred t.Engine.fact = "m_fib")
      (Engine.trace res)
  in
  (match m1 with
  | Some t -> check_bool "m_fib constraint fact" false (Fact.is_ground t.Engine.fact)
  | None -> Alcotest.fail "no m_fib fact at iteration 1");
  (* iteration 8 continues producing fib(5, 8) -- the divergence *)
  check_bool "fib(5,8) derived at 8" true (fib_value res 5)

let test_table2 () =
  (* Pfib^mg_1 (predicate constraint $2 >= 1 propagated): terminates *)
  let pmg = fib_magic_constrained 5 in
  let res = Engine.run ~max_iterations:30 ~traced:true pmg ~edb:[] in
  check_bool "terminates" true (Engine.stats res).Engine.reached_fixpoint;
  check_bool "answer fib(4,5)" true (fib_value res 4);
  check_bool "no fib(5,_) computed" false (fib_value res 5);
  (* answer at iteration 7, same as Table 2 *)
  let t47 =
    List.find
      (fun (t : Engine.trace_entry) ->
        (not t.Engine.subsumed)
        && Fact.pred t.Engine.fact = "fib"
        && Fact.ground_value t.Engine.fact 1 = Some (Rat.of_int 4))
      (Engine.trace res)
  in
  check_int "fib(4,5) at iteration 7" 7 t47.Engine.iteration

let test_fib_no_answer_terminates () =
  (* Example 4.4: ?- fib(N, 6) answers "no" and terminates *)
  let pmg = fib_magic_constrained 6 in
  let res = Engine.run ~max_iterations:40 pmg ~edb:[] in
  check_bool "terminates" true (Engine.stats res).Engine.reached_fixpoint;
  check_bool "no answers" true (Engine.answers res (parse fib_src) = [])

(* ----- Example 6.1: GMT ----- *)

let ex61_src =
  {|
r1: p(X, Y) :- U > 10, q(X, U, V), W > V, p(W, Y).
r2: p(X, Y) :- u(X, Y).
r3: q(X, Y, Z) :- q1(X, U), q2(W, Y), q3(U, W, Z).
?- X > 10, p(X, Y).
|}

let test_gmt_adorn () =
  let adorned = Gmt.adorn_bcf ~query_adornment:"ff" (parse ex61_src) in
  let derived = Program.derived adorned in
  check_bool "p_cf" true (List.mem "p_cf" derived);
  check_bool "q_ccf" true (List.mem "q_ccf" derived);
  check_bool "groundable" true (Gmt.groundable adorned)

let test_gmt_magic_shape () =
  let adorned = Gmt.adorn_bcf ~query_adornment:"ff" (parse ex61_src) in
  let pmg = Gmt.magic adorned in
  (* magic predicates keep conditioned positions: m_p_cf has arity 1,
     m_q_ccf arity 2 *)
  check_int "m_p_cf arity" 1 (Program.arity pmg "m_p_cf");
  check_int "m_q_ccf arity" 2 (Program.arity pmg "m_q_ccf");
  (* Pmg is NOT range-restricted (rule mr2 binds W only via W > V) *)
  check_bool "pmg not range-restricted" false (Program.is_range_restricted pmg)

let test_gmt_grounding () =
  let adorned = Gmt.adorn_bcf ~query_adornment:"ff" (parse ex61_src) in
  let pmg = Gmt.magic adorned in
  let final = Magic.inline_seed (Gmt.ground_fold_unfold ~adorned pmg) in
  (* Theorem 6.2 (1): the result is range-restricted *)
  check_bool "range-restricted" true (Program.is_range_restricted final);
  (* no conditioned magic predicate survives *)
  check_bool "no conditioned magic rules" true
    (List.for_all
       (fun (r : Rule.t) ->
         let check (l : Literal.t) =
           not (l.Literal.pred = "m_p_cf" || l.Literal.pred = "m_q_ccf")
         in
         check r.Rule.head && List.for_all check r.Rule.body)
       final.Program.rules);
  (* paper's final program: 9 rules + the query rule *)
  check_int "rule count" 10 (List.length final.Program.rules);
  (* Theorem 6.2 (2): query equivalence on a concrete EDB *)
  let edb =
    edb_of
      {|
u(20, 1). u(5, 2).
q1(20, 3). q2(4, 30). q3(3, 4, 7).
|}
  in
  (* p(20,1) holds (u), p via recursion: q(20,30,7) needs W > V ... *)
  let plain = Engine.run (parse ex61_src) ~edb in
  let ground = Engine.run final ~edb in
  let pq = match (parse ex61_src).Program.query with Some q -> q | None -> assert false in
  let gq = match final.Program.query with Some q -> q | None -> assert false in
  let answers_plain = Engine.facts_of plain pq in
  let answers_ground = Engine.facts_of ground gq in
  check_bool "ground run computes ground facts only" true (Engine.all_ground ground);
  check_int "same number of answers" (List.length answers_plain) (List.length answers_ground);
  check_bool "same answers" true
    (List.for_all
       (fun f ->
         List.exists
           (fun g -> Fact.equal f (Fact.make (Fact.pred f) g.Fact.args (Fact.cstr g)))
           answers_ground)
       answers_plain)

(* ----- Examples 7.1 / 7.2 (Appendix D): non-confluence ----- *)

let d1_src =
  {|
r1: q(X, Y) :- a1(X, Y), X <= 4.
r2: a1(X, Y) :- b1(X, Z), a2(Z, Y).
r3: a2(X, Y) :- b2(X, Y).
r4: a2(X, Y) :- b2(X, Z), a2(Z, Y).
#query q.
|}

let segments_edb n seg =
  (* b1 maps source i to the head of a disjoint b2 segment; pruning the
     magic seeds for a2 then prunes whole segments (a chain would let the
     recursive magic rule re-derive every node anyway) *)
  String.concat "\n"
    (List.concat
       (List.init n (fun i ->
            Printf.sprintf "b1(%d, %d)." i (100 * i)
            :: List.init seg (fun j ->
                   Printf.sprintf "b2(%d, %d)." ((100 * i) + j) ((100 * i) + j + 1)))))
  |> edb_of

let magic_ff = Rewrite.Magic { adornment = "ff"; constraint_magic = true }

let test_d1 () =
  let p = parse d1_src in
  let qrp_mg, _ = Rewrite.sequence [ Rewrite.Qrp; magic_ff ] p in
  let mg_qrp, _ = Rewrite.sequence [ magic_ff; Rewrite.Qrp ] p in
  (* the magic rule for a2 carries X <= 4 only in P^{qrp,mg} *)
  let m_a2_rule_has_constraint prog =
    List.exists
      (fun (r : Rule.t) ->
        String.length r.Rule.head.Literal.pred >= 4
        && String.sub r.Rule.head.Literal.pred 0 4 = "m_a2"
        && List.exists
             (fun (l : Literal.t) -> l.Literal.pred = "b1")
             r.Rule.body
        && not (Conj.is_tt r.Rule.cstr))
      prog.Program.rules
  in
  check_bool "qrp,mg restricts m_a2" true (m_a2_rule_has_constraint qrp_mg);
  check_bool "mg,qrp does not" false (m_a2_rule_has_constraint mg_qrp);
  (* on data where the constraint prunes, qrp,mg computes fewer facts *)
  let edb = segments_edb 10 4 in
  let r1 = Engine.run qrp_mg ~edb in
  let r2 = Engine.run mg_qrp ~edb in
  check_bool "both ground" true (Engine.all_ground r1 && Engine.all_ground r2);
  check_bool "qrp,mg computes fewer facts" true
    (Engine.total_idb_facts r1 ~edb < Engine.total_idb_facts r2 ~edb)

let d2_src =
  {|
r1: q(X, Y) :- a1(X, Y).
r2: a1(X, Y) :- b1(X, Z), X <= 4, a2(Z, Y).
r3: a2(X, Y) :- b2(X, Y).
r4: a2(X, Y) :- b2(X, Z), a2(Z, Y).
#query q.
|}

let test_d2 () =
  let p = parse d2_src in
  let magic_bf = Rewrite.Magic { adornment = "bf"; constraint_magic = true } in
  let qrp_mg, _ = Rewrite.sequence [ Rewrite.Qrp; magic_bf ] p in
  let mg_qrp, _ = Rewrite.sequence [ magic_bf; Rewrite.Qrp ] p in
  (* here QRP propagation on P finds nothing (the constraint is local to
     r2), so P^{qrp} = P; but on P^{mg} it restricts the magic rule for a1:
     mrl: m_a1bf(X) :- m_qbf(X), X <= 4 *)
  let m_a1_rule_constrained prog =
    List.exists
      (fun (r : Rule.t) ->
        String.length r.Rule.head.Literal.pred >= 4
        && String.sub r.Rule.head.Literal.pred 0 4 = "m_a1"
        && not (Conj.is_tt r.Rule.cstr))
      prog.Program.rules
  in
  check_bool "mg,qrp restricts m_a1" true (m_a1_rule_constrained mg_qrp);
  check_bool "qrp,mg does not" false (m_a1_rule_constrained qrp_mg);
  (* querying with a bound constant that violates X <= 4 lets mg,qrp prune
     everything *)
  let edb =
    edb_of "b1(9, 0). b2(0, 1). b2(1, 2). b2(2, 3). q_seed(9)."
  in
  ignore edb;
  (* evaluate with the query constant 9 via a query rule *)
  let with_query src =
    parse (src ^ "\n") |> fun p0 ->
    let p1, _ = Program.with_query_rule p0 [ Literal.make "q" [ Term.int 9; Term.var (Var.fresh "Y") ] ] Conj.tt in
    p1
  in
  let pq = with_query d2_src in
  let qrp_mg2, _ = Rewrite.sequence [ Rewrite.Qrp; Rewrite.Magic { adornment = "f"; constraint_magic = true } ] pq in
  let mg_qrp2, _ = Rewrite.sequence [ Rewrite.Magic { adornment = "f"; constraint_magic = true }; Rewrite.Qrp ] pq in
  let edb2 = edb_of "b1(9, 0). b2(0, 1). b2(1, 2). b2(2, 3)." in
  let r1 = Engine.run qrp_mg2 ~edb:edb2 in
  let r2 = Engine.run mg_qrp2 ~edb:edb2 in
  check_bool "mg,qrp computes no more facts" true
    (Engine.total_idb_facts r2 ~edb:edb2 <= Engine.total_idb_facts r1 ~edb:edb2)

(* ----- Theorems 7.8 / 7.10: optimal ordering ----- *)

let flights_src =
  {|
r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.
r2: cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.
r3: flight(Src, Dst, Time, Cost) :- singleleg(Src, Dst, Time, Cost), Cost > 0, Time > 0.
r4: flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2),
                          T = T1 + T2 + 30, C = C1 + C2.
#query cheaporshort.
|}

(* Example 1.1's pred,qrp rewrite.  QRP folds only the rules the query
   still reaches through folded bodies, so the original r4, which the
   rewrite drops, pays no fold checks (folding every rule makes 19 cset
   implication checks) *)
let flights_rewritten =
  {|r1'1: cheaporshort(S, D, T, C) :- flight'(S, D, T, C), T <= 240, -T < 0, -C < 0.
r2'1: cheaporshort(S, D, T, C) :- flight'(S, D, T, C), T <= 240, C <= 150, -T < 0, -C < 0.
r2'2: cheaporshort(S, D, T, C) :- flight'(S, D, T, C), C <= 150, -T < 0, -C < 0.
r3'1: flight'(Src, Dst, Time, Cost) :- singleleg(Src, Dst, Time, Cost), Time <= 240, -Time < 0, -Cost < 0.
r4'1: flight'(S, D, T, C) :- flight'(S, D1, T1, C1), flight'(D1, D, T2, C2), T <= 240, -T < 0, -C < 0, -T1 < 0, -C1 < 0, -T2 < 0, -C2 < 0, T - T1 - T2 = 30, C - C1 - C2 = 0.
r3'2: flight'(Src, Dst, Time, Cost) :- singleleg(Src, Dst, Time, Cost), Cost <= 150, -Time < 0, -Cost < 0.
r4'2: flight'(S, D, T, C) :- flight'(S, D1, T1, C1), flight'(D1, D, T2, C2), C <= 150, -T < 0, -C < 0, -T1 < 0, -C1 < 0, -T2 < 0, -C2 < 0, T - T1 - T2 = 30, C - C1 - C2 = 0.
#query cheaporshort.|}

let test_flights_rewrite_checks () =
  let module Obs = Cql_obs.Obs in
  Memo.clear_all ();
  Obs.zero "solver.";
  let p', _ = Rewrite.constraint_rewrite (parse flights_src) in
  let checks = Obs.value (Obs.counter "solver.cset_implies_checks") in
  check_bool
    (Printf.sprintf "%d cset implication checks, at most 15" checks)
    true (checks <= 15);
  Alcotest.(check string) "rewritten program" flights_rewritten
    (Program.to_string (Program.prettify p'))

let singleleg_edb seed m =
  let rng = ref seed in
  let next () =
    rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
    !rng
  in
  List.init m (fun i ->
      let src = Printf.sprintf "c%d" i and dst = Printf.sprintf "c%d" ((i + 1) mod m) in
      let time = 30 + (next () mod 300) in
      let cost = 20 + (next () mod 250) in
      Fact.ground "singleleg"
        [ Term.Sym src; Term.Sym dst; Term.Num (Rat.of_int time); Term.Num (Rat.of_int cost) ])

let test_optimal_ordering () =
  let p = parse flights_src in
  let edb = singleleg_edb 11 6 in
  let run prog =
    let res = Engine.run ~max_iterations:10 ~max_derivations:4000 prog ~edb in
    Engine.total_idb_facts res ~edb
  in
  let optimal_prog, _ = Rewrite.optimal ~adornment:"ffff" p in
  let n_opt = run optimal_prog in
  (* mg alone *)
  let mg_only, _ = Rewrite.sequence [ Rewrite.Magic { adornment = "ffff"; constraint_magic = true } ] p in
  let n_mg = run mg_only in
  (* mg then pred,qrp *)
  let mg_first, _ =
    Rewrite.sequence
      [ Rewrite.Magic { adornment = "ffff"; constraint_magic = true }; Rewrite.Pred; Rewrite.Qrp ]
      p
  in
  let n_mg_first = run mg_first in
  check_bool "optimal <= magic-only" true (n_opt <= n_mg);
  check_bool "optimal <= mg,pred,qrp" true (n_opt <= n_mg_first);
  check_bool "optimal strictly better than magic-only" true (n_opt < n_mg)


(* ----- differential property: magic preserves answers on random data ----- *)

let random_tc_edb seed n =
  let rng = ref (seed + 3) in
  let next m =
    rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
    !rng mod m
  in
  List.init n (fun _ ->
      let a = next 8 and b = next 8 in
      Fact.ground "edge" [ Term.Sym (Printf.sprintf "n%d" a); Term.Sym (Printf.sprintf "n%d" b) ])

let prop_magic_preserves_answers =
  QCheck.Test.make ~name:"magic templates preserve query answers (random graphs)" ~count:25
    (QCheck.pair (QCheck.int_range 0 5000) (QCheck.int_range 2 10)) (fun (seed, n) ->
      let p = parse {|
path(X, Y) :- edge(X, Y).
path(X, Z) :- edge(X, Y), path(Y, Z).
?- path(n0, Y).
|} in
      let adorned = Adorn.program ~query_adornment:"f" p in
      let pmg = Magic.templates_bf adorned in
      let edb = random_tc_edb seed n in
      Harness.check_rewrite ~max_iterations:20 ~max_derivations:20_000 ~original:p
        ~rewritten:pmg ~edb ()
      = Harness.Agree)

let prop_optimal_preserves_answers =
  QCheck.Test.make ~name:"pred,qrp,mg preserves flights answers (random networks)" ~count:10
    (QCheck.pair (QCheck.int_range 0 5000) (QCheck.int_range 3 6)) (fun (seed, m) ->
      let p = parse flights_src in
      let popt, _ = Rewrite.optimal ~adornment:"ffff" p in
      let edb = singleleg_edb seed m in
      (* the original may hit the budget on cyclic nets; only require answer
         agreement when both runs completed *)
      match
        Harness.check_rewrite ~max_iterations:8 ~max_derivations:10_000 ~original:p
          ~rewritten:popt ~edb ()
      with
      | Harness.Agree | Harness.Truncated -> true
      | Harness.Fails _ -> false)

let test_rename_base () =
  let check what expected name =
    Alcotest.(check (option string))
      what expected
      (Harness.root_name [ "flight"; "a1"; "cheap_seats"; "p1" ] name)
  in
  check "prime" (Some "flight") "flight'";
  check "adorned" (Some "flight") "flight_bbff";
  check "both" (Some "flight") "flight'_bbff";
  check "nested" (Some "a1") "a1'_ff";
  check "GMT conditioned" (Some "p1") "p1_cf";
  check "GMT conditioned and primed" (Some "flight") "flight'_bcf";
  check "untouched" (Some "cheap_seats") "cheap_seats";
  check "magic" None "m_flight_bbff"

(* ----- the seed reference evaluator on the paper's runs ----- *)

let ref_fib_value res n =
  List.exists
    (fun f -> Fact.ground_value f 1 = Some (Rat.of_int n))
    (Reference.facts_of res "fib")

let test_reference_table1 () =
  (* Pfib^mg diverges; fib(4, 5) first appears at iteration 7 *)
  let pmg = fib_magic () in
  let at cap = Reference.run ~max_iterations:cap pmg ~edb:[] in
  check_bool "no fib(4, _) after 6 iterations" false (ref_fib_value (at 6) 4);
  let r7 = at 7 in
  check_bool "fib(4, 5) at iteration 7" true (ref_fib_value r7 4);
  check_bool "does not terminate" false (Reference.stats r7).Reference.reached_fixpoint;
  check_bool "m_fib constraint facts" true
    (List.exists (fun f -> not (Fact.is_ground f)) (Reference.facts_of r7 "m_fib"));
  Reference_check.check "Table 1, 8 iterations"
    (Engine.run ~max_iterations:8 pmg ~edb:[])
    (at 8)

let test_reference_table2 () =
  (* Pfib^mg_1 terminates with the answer and without fib(5, _) *)
  let pmg = fib_magic_constrained 5 in
  let r = Reference.run ~max_iterations:30 pmg ~edb:[] in
  check_bool "terminates" true (Reference.stats r).Reference.reached_fixpoint;
  check_bool "answer fib(4, 5)" true (ref_fib_value r 4);
  check_bool "no fib(5, _) computed" false (ref_fib_value r 5);
  Reference_check.check "Table 2" (Engine.run ~max_iterations:30 pmg ~edb:[]) r

let test_reference_flights () =
  (* the motivating flights program, unrewritten (budget-capped: it
     diverges) and after the pred,qrp constraint rewrite *)
  let p = parse flights_src in
  let edb = singleleg_edb 11 6 in
  Reference_check.check "flights, 4 iterations"
    (Engine.run ~max_iterations:4 p ~edb)
    (Reference.run ~max_iterations:4 p ~edb);
  let p', _ = Rewrite.constraint_rewrite p in
  let r = Reference.run ~max_iterations:10 p' ~edb in
  check_bool "rewritten flights terminates" true (Reference.stats r).Reference.reached_fixpoint;
  Reference_check.check "flights, pred,qrp" (Engine.run ~max_iterations:10 p' ~edb) r

let () =
  Alcotest.run "paper"
    [
      ( "magic",
        [
          Alcotest.test_case "bf adornment" `Quick test_adorn_bf;
          Alcotest.test_case "equality grounding in adornment" `Quick test_adorn_equality_grounding;
          Alcotest.test_case "flights with bound query" `Quick test_magic_flights_bound_query;
          Alcotest.test_case "magic prunes by reachability" `Quick test_magic_vs_plain_fact_counts;
        ] );
      ( "tables",
        [
          Alcotest.test_case "Table 1 (diverging fib)" `Quick test_table1;
          Alcotest.test_case "Table 2 (terminating fib)" `Quick test_table2;
          Alcotest.test_case "fib(N,6) answers no (Example 4.4)" `Quick test_fib_no_answer_terminates;
        ] );
      ( "gmt",
        [
          Alcotest.test_case "bcf adornment (Example 6.1)" `Quick test_gmt_adorn;
          Alcotest.test_case "magic shape (Example 6.1)" `Quick test_gmt_magic_shape;
          Alcotest.test_case "grounding step (Example 6.1, Theorem 6.2)" `Quick test_gmt_grounding;
        ] );
      ( "confluence",
        [
          Alcotest.test_case "Example 7.1 / D.1" `Quick test_d1;
          Alcotest.test_case "Example 7.2 / D.2" `Quick test_d2;
        ] );
      ( "ordering", [ Alcotest.test_case "Theorem 7.10 optimal order" `Slow test_optimal_ordering ] );
      ( "rewrite",
        [
          Alcotest.test_case "Example 1.1 folds only surviving rules" `Quick
            test_flights_rewrite_checks;
        ] );
      ( "reference",
        [
          Alcotest.test_case "Table 1 (diverging fib)" `Quick test_reference_table1;
          Alcotest.test_case "Table 2 (terminating fib)" `Quick test_reference_table2;
          Alcotest.test_case "flights" `Quick test_reference_flights;
        ] );
      ( "differential",
        Alcotest.test_case "rename_base" `Quick test_rename_base
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_magic_preserves_answers; prop_optimal_preserves_answers ] );
    ]
