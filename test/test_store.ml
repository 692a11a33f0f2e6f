(* Tests for the indexed relation store (Cql_store): hash-index insert and
   probe, old/delta/full partition promotion, indexed subsumption, the join
   planner's bound-ness ordering, and cross-checks asserting the engine
   computes exactly the same fact sets as the seed reference evaluator. *)

open Cql_num
open Cql_constr
open Cql_datalog
open Cql_eval
module Store = Cql_store.Store
module Planner = Cql_store.Planner
module Reference = Cql_gen.Reference

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let parse = Parser.program_of_string
let edb_of s = List.map Fact.of_fact_rule (Parser.facts_of_string s)
let fact_of s = Fact.of_fact_rule (Parser.rule_of_string s)
let ground2 p a b = Fact.ground p [ Term.Sym a; Term.Num (Rat.of_int b) ]

let lit pred args = Literal.make pred args

(* the candidates [Store.iter_probe_cols] pushes for a literal, keyed on
   its constant columns *)
let probe_lit s part (l : Literal.t) =
  let bound =
    List.concat
      (List.mapi
         (fun i (t : Term.t) -> match t with Term.C c -> [ (i, c) ] | Term.V _ -> [])
         l.Literal.args)
  in
  let acc = ref [] in
  Store.iter_probe_cols s part l.Literal.pred (List.map fst bound) (List.map snd bound)
    (fun f -> acc := f :: !acc);
  List.rev !acc

(* ----- index insert / probe ----- *)

let test_probe_indexed () =
  let s = Store.create () in
  Store.add s (ground2 "p" "a" 1);
  Store.add s (ground2 "p" "a" 2);
  Store.add s (ground2 "p" "b" 1);
  Store.advance s;
  (* bound first column *)
  let x = Term.var (Var.fresh "X") in
  check_int "p(a, X)" 2 (List.length (probe_lit s Store.Full (lit "p" [ Term.sym "a"; x ])));
  check_int "p(b, X)" 1 (List.length (probe_lit s Store.Full (lit "p" [ Term.sym "b"; x ])));
  (* bound second column *)
  check_int "p(X, 1)" 2 (List.length (probe_lit s Store.Full (lit "p" [ x; Term.int 1 ])));
  (* both columns bound: exact lookup *)
  check_int "p(a, 1)" 1
    (List.length (probe_lit s Store.Full (lit "p" [ Term.sym "a"; Term.int 1 ])));
  check_int "p(a, 9)" 0
    (List.length (probe_lit s Store.Full (lit "p" [ Term.sym "a"; Term.int 9 ])));
  (* no bound column: full scan *)
  check_int "p(X, Y)" 3
    (List.length (probe_lit s Store.Full (lit "p" [ x; Term.var (Var.fresh "Y") ])));
  (* unknown predicate *)
  check_int "q(X)" 0 (List.length (probe_lit s Store.Full (lit "q" [ x ])));
  let st = Store.stats s in
  check_bool "indexed probes counted" true (st.Store.indexed_probes >= 5);
  check_bool "scans counted" true (st.Store.scans >= 1);
  check_bool "facts skipped by indexing" true (st.Store.facts_skipped > 0)

let test_probe_wildcard_constraint_fact () =
  let s = Store.create () in
  Store.add s (fact_of "p(a, X; X <= 5).");
  Store.add s (ground2 "p" "a" 7);
  Store.advance s;
  (* a numeric probe cannot rule the unpinned fact out: the index returns it
     from the wildcard list and matches_literal keeps it *)
  let cands = probe_lit s Store.Full (lit "p" [ Term.sym "a"; Term.int 3 ]) in
  let rlit = lit "p" [ Term.sym "a"; Term.int 3 ] in
  let matching = List.filter (fun f -> Fact.matches_literal rlit f) cands in
  check_int "wildcard returned" 1 (List.length matching);
  check_bool "it is the constraint fact" true (not (Fact.is_ground (List.hd matching)))

let test_partition_promotion () =
  let s = Store.create () in
  let x = Term.var (Var.fresh "X") in
  let probe part = List.length (probe_lit s part (lit "e" [ Term.sym "a"; x ])) in
  Store.add s (ground2 "e" "a" 1);
  check_int "pending invisible" 0 (probe Store.Full);
  Store.advance s;
  check_int "delta after advance" 1 (probe Store.Delta);
  check_int "old empty" 0 (probe Store.Old);
  Store.add s (ground2 "e" "a" 2);
  Store.advance s;
  check_int "promoted to old" 1 (probe Store.Old);
  check_int "new delta" 1 (probe Store.Delta);
  check_int "full is both" 2 (probe Store.Full);
  Store.advance s;
  check_int "delta drained" 0 (probe Store.Delta);
  check_int "all old" 2 (probe Store.Old)

(* ----- subsumption via the store ----- *)

let test_ground_duplicate_hash () =
  let s = Store.create () in
  Store.add s (ground2 "p" "a" 1);
  let before = (Store.stats s).Store.subsumption_compared in
  check_bool "duplicate detected" true (Store.known_subsumes s (ground2 "p" "a" 1));
  check_int "without any comparison" before (Store.stats s).Store.subsumption_compared;
  check_bool "different value not subsumed" false (Store.known_subsumes s (ground2 "p" "a" 2));
  check_bool "different pattern not subsumed" false
    (Store.known_subsumes s (ground2 "p" "b" 1))

let test_back_subsumption () =
  let s = Store.create () in
  Store.add s (fact_of "p(X; X <= 3).");
  Store.advance s;
  check_int "narrower stored" 1 (List.length (Store.facts s "p"));
  (* the wider fact subsumes the stored narrower one *)
  check_bool "wider not subsumed" false (Store.known_subsumes s (fact_of "p(X; X <= 5)."));
  Store.add s (fact_of "p(X; X <= 5).");
  check_int "narrower dropped" 1 (List.length (Store.facts s "p"));
  check_bool "narrower now subsumed" true (Store.known_subsumes s (fact_of "p(X; X <= 3)."));
  check_bool "ground instance subsumed" true
    (Store.known_subsumes s (Fact.ground "p" [ Term.Num (Rat.of_int 4) ]));
  check_int "one live fact" 1 (Store.total s)

let test_subsumption_avoided_stat () =
  let s = Store.create () in
  for i = 1 to 20 do
    Store.add s (ground2 "p" "a" i)
  done;
  Store.advance s;
  let before = (Store.stats s).Store.subsumption_avoided in
  (* a ground duplicate is answered by the hash: all 20 comparisons avoided *)
  ignore (Store.known_subsumes s (ground2 "p" "a" 10));
  let after = (Store.stats s).Store.subsumption_avoided in
  check_int "all comparisons avoided" 20 (after - before)

(* ----- maintenance primitives: structural lookup, deletion ----- *)

let test_classify_and_delete () =
  let s = Store.create () in
  let f1 = ground2 "p" "a" 1 and f2 = ground2 "p" "a" 2 in
  let cf = fact_of "q(X; X <= 3)." in
  let stored f =
    match Store.arrive s f with
    | Store.Stored [] -> true
    | Store.Stored _ | Store.Equal | Store.Subsumed -> false
  in
  check_bool "new ground fact stored" true (stored f1);
  check_bool "new constraint fact stored" true (stored cf);
  Store.advance s;
  check_bool "pending fact stored" true (stored f2);
  let equal_to f =
    match Store.arrive s f with Store.Equal -> true | Store.Subsumed | Store.Stored _ -> false
  in
  (* structural lookup sees every partition, including pending *)
  check_bool "ground fact found" true (equal_to f1);
  check_bool "pending fact found" true (equal_to f2);
  check_bool "constraint fact found structurally" true (equal_to cf);
  (* equality, not subsumption: a narrower variant is subsumed, not equal *)
  check_bool "narrower variant subsumed" true
    (Store.arrive s (fact_of "q(X; X <= 2).") = Store.Subsumed);
  check_bool "ground point subsumed" true
    (Store.arrive s (Fact.ground "q" [ Term.Num (Rat.of_int 2) ]) = Store.Subsumed);
  check_int "no arrival stored twice" 3 (Store.total s);
  check_bool "delete removes a live fact" true (Store.delete s f1);
  check_bool "deleted fact gone" false (Store.known_subsumes s f1);
  check_bool "double delete is a no-op" false (Store.delete s f1);
  (* a deleted ground fact is no longer a known duplicate, so it can come
     back (retract-then-reinsert) *)
  check_bool "stored again" true (stored f1);
  Store.advance s;
  check_bool "reinsert after delete" true (equal_to f1);
  check_bool "constraint fact deleted" true (Store.delete s cf);
  check_bool "constraint fact gone" false (Store.known_subsumes s cf);
  check_int "other facts untouched" 2 (Store.total s);
  (* a wider variant is stored and reports the narrower one it kills *)
  check_bool "narrower stored" true (stored cf);
  (match Store.arrive s (fact_of "q(X; X <= 5).") with
  | Store.Stored [ k ] -> check_bool "the killed fact" true (Fact.equal k cf)
  | Store.Stored _ | Store.Equal | Store.Subsumed -> Alcotest.fail "no back-subsumption");
  check_int "narrower one dropped" 3 (Store.total s)

(* [arrive] counts its check as [known_subsumes] does and its insertion as
   [add] does: two stores fed one stream, through one call and through
   two, end with equal stats *)
let test_arrive_counts () =
  let one = Store.create () and two = Store.create () in
  let stream =
    List.map fact_of
      [
        "p(a, 1)."; "p(a, 1)."; "p(X, Y; Y <= 3)."; "p(a, 2)."; "p(X, Y; Y <= 3).";
        "p(X, Y; Y <= 5)."; "p(X, Y; Y <= 2)."; "p(b, 7)."; "q(X; X >= 1)."; "q(X; X >= 1).";
        "q(X; X >= 0)."; "q(4).";
      ]
  in
  List.iteri
    (fun i f ->
      if i mod 4 = 3 then begin
        Store.advance one;
        Store.advance two
      end;
      ignore (Store.arrive one f);
      if not (Store.known_subsumes two f) then Store.add two f)
    stream;
  let a = Store.stats one and b = Store.stats two in
  check_int "subsumption checks" b.Store.subsumption_checks a.Store.subsumption_checks;
  check_int "comparisons" b.Store.subsumption_compared a.Store.subsumption_compared;
  check_int "comparisons avoided" b.Store.subsumption_avoided a.Store.subsumption_avoided;
  check_int "live facts" (Store.total two) (Store.total one)

(* ----- join planner ----- *)

let rule_of s = Parser.rule_of_string s

let preds plan = List.map (fun (st : Planner.step) -> st.Planner.lit.Literal.pred) plan
let origs plan = List.map (fun (st : Planner.step) -> st.Planner.orig) plan
let parts plan = List.map (fun (st : Planner.step) -> st.Planner.part) plan

let test_planner_pivot_first () =
  let r = rule_of "q(X, Z) :- e(X, Y), f(Y, Z), g(c, Z)." in
  (* pivot 2: the delta literal g leads, then f (shares Z), then e *)
  let plan = Planner.order ~pivot:2 r.Rule.body in
  Alcotest.(check (list string)) "order" [ "g"; "f"; "e" ] (preds plan);
  Alcotest.(check (list int)) "orig positions" [ 2; 1; 0 ] (origs plan);
  check_bool "parts" true
    (parts plan = [ Store.Delta; Store.Old; Store.Old ])

let test_planner_constants_first () =
  let r = rule_of "q(X, Z) :- e(X, Y), f(Y, Z), g(c, Z)." in
  (* no pivot: g has a constant column, so it leads *)
  let plan = Planner.order ~pivot:(-1) r.Rule.body in
  Alcotest.(check (list string)) "order" [ "g"; "f"; "e" ] (preds plan);
  check_bool "all full" true (List.for_all (fun p -> p = Store.Full) (parts plan))

let test_planner_covers_pivots () =
  let r = rule_of "q(X, Z) :- e(X, Y), f(Y, Z)." in
  let plans = Planner.plans r in
  check_int "one plan per pivot" 2 (List.length plans);
  List.iteri
    (fun pivot plan ->
      check_int "plan is a permutation" 2 (List.length plan);
      check_bool "pivot literal reads delta" true
        (List.exists
           (fun (st : Planner.step) ->
             st.Planner.orig = pivot && st.Planner.part = Store.Delta)
           plan);
      check_bool "pivot goes first" true ((List.hd plan).Planner.orig = pivot))
    plans

let test_planner_empty_body () =
  check_int "ordering an empty body" 0 (List.length (Planner.order ~pivot:(-1) []));
  let r = rule_of "q(1)." in
  (* a fact rule has no pivots, so it has no plans at all *)
  check_int "no plans" 0 (List.length (Planner.plans r));
  check_int "no step bindings" 0 (List.length (Planner.step_bindings []))

let test_planner_all_constants () =
  let r = rule_of "q(X) :- f(X, c), e(a, b)." in
  (* e is fully constant (2 bound, 0 free): most bound, so it leads even
     from second position *)
  let plan = Planner.order ~pivot:(-1) r.Rule.body in
  Alcotest.(check (list string)) "fully-constant literal first" [ "e"; "f" ] (preds plan);
  (* but a pivot always overrides bound-ness: the delta literal leads *)
  let plan = Planner.order ~pivot:0 r.Rule.body in
  Alcotest.(check (list string)) "pivot overrides constants" [ "f"; "e" ] (preds plan);
  check_bool "pivot part" true ((List.hd plan).Planner.part = Store.Delta)

let test_planner_single_literal () =
  let r = rule_of "q(X) :- e(X, Y)." in
  match Planner.plans r with
  | [ [ st ] ] ->
      check_int "the only literal is the pivot" 0 st.Planner.orig;
      check_bool "and reads the delta" true (st.Planner.part = Store.Delta)
  | _ -> Alcotest.fail "one single-step plan expected"

let test_planner_tie_break () =
  (* e, f, g all score (0 bound, 1 free) at the start: the first original
     position wins the tie, deterministically *)
  let r = rule_of "q(X, Y) :- e(X), f(Y), g(X)." in
  let plan = Planner.order ~pivot:(-1) r.Rule.body in
  (* e first (tie on original position); then X is bound, so g (1 bound,
     0 free) beats f (0 bound, 1 free) *)
  Alcotest.(check (list string)) "stable tie then bound-ness" [ "e"; "g"; "f" ] (preds plan);
  (* repeated calls are stable *)
  check_bool "deterministic" true
    (preds (Planner.order ~pivot:(-1) r.Rule.body) = [ "e"; "g"; "f" ])

let test_planner_step_bindings () =
  let r = rule_of "q(X, Z) :- e(X, Y), f(Y, Z)." in
  let plan = Planner.order ~pivot:0 r.Rule.body in
  match Planner.step_bindings plan with
  | [ (b0, n0); (b1, n1) ] ->
      check_bool "nothing bound at step 0" true (Var.Set.is_empty b0);
      check_int "step 0 binds X and Y" 2 (Var.Set.cardinal n0);
      check_int "step 1 starts with X and Y bound" 2 (Var.Set.cardinal b1);
      check_int "step 1 binds Z" 1 (Var.Set.cardinal n1)
  | _ -> Alcotest.fail "two steps expected"

(* ----- engine statistics through the indexed path ----- *)

let flights_src =
  {|
r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.
r2: cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.
r3: flight(Src, Dst, Time, Cost) :- singleleg(Src, Dst, Time, Cost), Cost > 0, Time > 0.
r4: flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2),
                          T = T1 + T2 + 30, C = C1 + C2.
#query cheaporshort.
|}

let singleleg_edb seed m =
  let rng = ref seed in
  let next () =
    rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
    !rng
  in
  List.init m (fun i ->
      let time = 30 + (next () mod 300) and cost = 20 + (next () mod 250) in
      Fact.ground "singleleg"
        [ Term.Sym (Printf.sprintf "c%d" i); Term.Sym (Printf.sprintf "c%d" ((i + 1) mod m));
          Term.Num (Rat.of_int time); Term.Num (Rat.of_int cost) ])

let test_engine_store_stats () =
  let p = parse flights_src in
  let edb = singleleg_edb 108 6 in
  let res = Engine.run ~max_iterations:5 p ~edb in
  let s = Engine.stats res in
  check_bool "index probes happened" true (s.Engine.index_probes > 0);
  check_bool "join probes skipped facts" true (s.Engine.facts_skipped > 0);
  check_bool "subsumption work avoided" true (s.Engine.subsumptions_avoided > 0)

(* ----- cross-check: engine == seed reference evaluator ----- *)

let cross_check ?(max_iterations = 8) name src edb =
  let p = parse src in
  let e = Engine.run ~max_iterations p ~edb in
  Reference_check.check (name ^ " seminaive") e (Reference.run ~max_iterations p ~edb);
  Reference_check.check_naive (name ^ " naive") e (Reference.run_naive ~max_iterations p ~edb)

(* every program under examples/programs/, with an EDB where one is needed *)
let programs_dir =
  (* runtest sandbox cwd is test/; dune exec runs from the project root *)
  List.find Sys.file_exists [ "../examples/programs"; "examples/programs" ]

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let extra_edb = function
  | "d1.cql" ->
      String.concat " "
        (List.concat
           (List.init 4 (fun i ->
                Printf.sprintf "b1(%d, %d)." i (100 * i)
                :: List.init 4 (fun j ->
                       Printf.sprintf "b2(%d, %d)." ((100 * i) + j) ((100 * i) + j + 1)))))
  | "ex61.cql" ->
      "u(20, 1). u(5, 2). u(40, 9). q1(20, 3). q1(40, 3). q2(4, 30). q3(3, 4, 7)."
  | _ -> ""

let test_cross_check_examples () =
  let files = Sys.readdir programs_dir in
  Array.sort compare files;
  let checked = ref 0 in
  Array.iter
    (fun file ->
      if Filename.check_suffix file ".cql" && not (Filename.check_suffix file "_edb.cql")
      then begin
        let src = read_file (Filename.concat programs_dir file) in
        let edb_file =
          Filename.concat programs_dir (Filename.chop_suffix file ".cql" ^ "_edb.cql")
        in
        let edb_src = if Sys.file_exists edb_file then read_file edb_file else "" in
        let edb = edb_of (edb_src ^ "\n" ^ extra_edb file) in
        cross_check file src edb;
        incr checked
      end)
    files;
  check_bool "checked every example program" true (!checked >= 5)

(* randomized cross-checks: the engine must agree with the seed reference
   evaluator on arbitrary ground EDBs, both for pure symbolic joins (transitive
   closure) and arithmetic joins (flights) *)

let tc_src = {|
path(X, Y) :- edge(X, Y).
path(X, Z) :- edge(X, Y), path(Y, Z).
#query path.
|}

let prop_tc_cross_check =
  QCheck.Test.make ~name:"indexed == seed on random graphs (tc)" ~count:30
    QCheck.(list_of_size (Gen.int_range 0 12) (pair (int_range 0 5) (int_range 0 5)))
    (fun edges ->
      let edb =
        List.map
          (fun (a, b) ->
            Fact.ground "edge"
              [ Term.Sym (Printf.sprintf "n%d" a); Term.Sym (Printf.sprintf "n%d" b) ])
          edges
      in
      let p = parse tc_src in
      let r1 = Engine.run p ~edb and r2 = Reference.run p ~edb in
      Reference_check.fact_sets (Engine.all_facts r1)
      = Reference_check.fact_sets (Reference.all_facts r2)
      && (Engine.stats r1).Engine.derivations = (Reference.stats r2).Reference.derivations)

let prop_flights_cross_check =
  QCheck.Test.make ~name:"indexed == seed on random flight networks" ~count:8
    QCheck.(pair (int_range 1 1000) (int_range 2 5))
    (fun (seed, m) ->
      let edb = singleleg_edb seed m in
      let p = parse flights_src in
      let r1 = Engine.run ~max_iterations:5 p ~edb in
      let r2 = Reference.run ~max_iterations:5 p ~edb in
      Reference_check.fact_sets (Engine.all_facts r1)
      = Reference_check.fact_sets (Reference.all_facts r2)
      && (Engine.stats r1).Engine.derivations = (Reference.stats r2).Reference.derivations)

(* ----- printing ----- *)

(* [Fact.to_string] prints a ground fact through a buffer: the same text as
   [Fact.pp], on symbols, negatives, fractions and multi-limb values *)
let ground_fact =
  let open QCheck.Gen in
  let big = Bigint.pow (Bigint.of_int 10) 25 in
  let near_big d = Bigint.add big (Bigint.of_int d) in
  let num =
    frequency
      [
        (3, map Rat.of_int (int_range (-1000) 1000));
        (2, map2 Rat.of_ints (int_range (-50) 50) (int_range 1 12));
        (1, map (fun d -> Rat.of_bigint (near_big d)) (int_range (-5) 5));
        ( 1,
          map2
            (fun n d -> Rat.make (Bigint.neg (near_big n)) (Bigint.of_int d))
            (int_range 0 9) (int_range 1 7) );
      ]
  in
  let sym = map (fun s -> Term.Sym s) (oneofl [ "a"; "madison"; "c0"; "x_1" ]) in
  let const = frequency [ (1, sym); (2, map (fun q -> Term.Num q) num) ] in
  let pred = oneofl [ "p"; "singleleg"; "m_q'_bf" ] in
  let fact = map2 Fact.ground pred (list_size (int_range 0 5) const) in
  QCheck.make ~print:(Format.asprintf "%a" Fact.pp) fact

let prop_fact_to_string =
  QCheck.Test.make ~name:"ground fact to_string is its pp" ~count:1000 ground_fact (fun f ->
      Fact.is_ground f && String.equal (Fact.to_string f) (Format.asprintf "%a" Fact.pp f))

(* a fact with a residual constraint is still printed by [pp] *)
let test_fact_to_string_residual () =
  List.iter
    (fun src ->
      let f = fact_of src in
      Alcotest.(check string) src (Format.asprintf "%a" Fact.pp f) (Fact.to_string f))
    [ "p(X, 3; X <= 5)."; "q(X, Y; X + Y >= 1, X <= 2)."; "r(a, X; X = 1.5)." ];
  Alcotest.(check string) "pinned by its constraint" "r(a, 3/2)"
    (Fact.to_string (fact_of "r(a, X; 2 * X = 3)."))

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "store"
    [
      ( "index",
        [
          Alcotest.test_case "indexed probe" `Quick test_probe_indexed;
          Alcotest.test_case "wildcard constraint facts" `Quick
            test_probe_wildcard_constraint_fact;
          Alcotest.test_case "partition promotion" `Quick test_partition_promotion;
        ] );
      ( "subsumption",
        [
          Alcotest.test_case "ground duplicate hash" `Quick test_ground_duplicate_hash;
          Alcotest.test_case "back subsumption" `Quick test_back_subsumption;
          Alcotest.test_case "avoided comparisons stat" `Quick test_subsumption_avoided_stat;
        ] );
      ( "maintenance",
        [
          Alcotest.test_case "classify + delete" `Quick test_classify_and_delete;
          Alcotest.test_case "arrive counts as check plus add" `Quick test_arrive_counts;
        ] );
      ( "planner",
        [
          Alcotest.test_case "pivot first" `Quick test_planner_pivot_first;
          Alcotest.test_case "constants first" `Quick test_planner_constants_first;
          Alcotest.test_case "plans cover pivots" `Quick test_planner_covers_pivots;
          Alcotest.test_case "empty body" `Quick test_planner_empty_body;
          Alcotest.test_case "all-constant literals" `Quick test_planner_all_constants;
          Alcotest.test_case "single-literal pivot" `Quick test_planner_single_literal;
          Alcotest.test_case "tie-breaking stability" `Quick test_planner_tie_break;
          Alcotest.test_case "step bindings" `Quick test_planner_step_bindings;
        ] );
      ( "engine",
        [
          Alcotest.test_case "store stats exposed" `Quick test_engine_store_stats;
          Alcotest.test_case "cross-check example programs" `Slow test_cross_check_examples;
        ] );
      ( "printing",
        Alcotest.test_case "residual constraints" `Quick test_fact_to_string_residual
        :: qt [ prop_fact_to_string ] );
      ("properties", qt [ prop_tc_cross_check; prop_flights_cross_check ]);
    ]
