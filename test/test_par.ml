(* Tests for the concurrency behind cqlserved, whose worker domains each
   serve their own connections: constraint terms and memo caches across
   domains, and independent fixpoints running on several domains at once. *)

open Cql_constr
open Cql_datalog
open Cql_eval

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let parse = Parser.program_of_string
let edb_of s = List.map Fact.of_fact_rule (Parser.facts_of_string s)

(* ----- terms across domains ----- *)

(* In each of 20 rounds four domains are spawned and joined; each builds
   overlapping atoms and conjunctions and asks is_sat/implies.  Every term
   must equal the main domain's, with the same hash, and every answer must
   match.  Domains that built terms and then exited once crashed the
   process when terms were interned in weak tables. *)
let test_terms_across_domains () =
  let v i = Linexpr.var (Var.arg i) in
  let build round =
    List.init 200 (fun k ->
        let a = Atom.le (v 1) (Linexpr.of_int ((k + round) mod 50)) in
        let b = Atom.ge (Linexpr.add (v 1) (v 2)) (Linexpr.of_int (k mod 17)) in
        let c = Conj.of_list [ a; b ] in
        let d = Conj.of_list [ b; Atom.le (v 1) (Linexpr.of_int (k mod 23)) ] in
        (a, c, (Conj.is_sat c, Conj.implies c d, Conj.implies_atom d a)))
  in
  for round = 1 to 20 do
    let domains = Array.init 4 (fun _ -> Domain.spawn (fun () -> build round)) in
    let results = Array.map Domain.join domains in
    let reference = build round in
    Array.iteri
      (fun i r ->
        let same =
          List.for_all2
            (fun (a, c, answers) (a', c', answers') ->
              Atom.equal a a' && Atom.hash a = Atom.hash a' && Conj.equal c c'
              && Conj.hash c = Conj.hash c' && answers = answers')
            reference r
        in
        check_bool
          (Printf.sprintf "round %d, domain %d: equal terms and answers" round i)
          true same)
      results
  done

let test_fresh_vars_parallel () =
  (* Var.fresh from concurrent domains must never hand out a duplicate id *)
  let grab () = List.init 500 (fun _ -> Var.fresh "t") in
  let domains = Array.init 4 (fun _ -> Domain.spawn grab) in
  let vars = Array.to_list (Array.map Domain.join domains) @ [ grab () ] in
  let names = List.concat_map (List.map Var.name) vars in
  check_int "fresh names unique across domains" (List.length names)
    (List.length (List.sort_uniq String.compare names))

(* ----- memo caches under domains ----- *)

let test_memo_domain_isolation () =
  let c : (int, int) Memo.cache =
    Memo.create ~name:"test_par_isolation" ~hash:Hashtbl.hash ~equal:Int.equal
  in
  Memo.clear_all ();
  Cql_obs.Obs.zero "solver.memo.test_par_isolation.";
  let v1 = Memo.cached c 1 (fun () -> 10) in
  let v2 = Memo.cached c 1 (fun () -> 99) in
  check_int "miss then hit in main domain" 10 v1;
  check_int "hit returns memoized value" 10 v2;
  (* a fresh domain has its own empty table: it recomputes rather than
     seeing the main domain's entry *)
  let other = Domain.spawn (fun () -> Memo.cached c 1 (fun () -> 20)) in
  check_int "spawned domain recomputes" 20 (Domain.join other);
  (* ...while hit/miss counters aggregate across domains *)
  let s = List.find (fun s -> s.Memo.name = "test_par_isolation") (Memo.stats ()) in
  check_int "aggregated hits" 1 s.Memo.hits;
  check_int "aggregated misses" 2 s.Memo.misses

let test_memo_results_agree_across_domains () =
  (* the decision procedures give the same answers from a worker domain *)
  let c = Conj.of_list [ Atom.le (Linexpr.var (Var.arg 1)) (Linexpr.of_int 2) ] in
  let a = Atom.le (Linexpr.var (Var.arg 1)) (Linexpr.of_int 5) in
  let here = Conj.implies_atom c a in
  let there = Domain.join (Domain.spawn (fun () -> Conj.implies_atom c a)) in
  check_bool "implies_atom agrees across domains" true (here = there && here = true)

(* a worker's per-request clear leaves every other domain's tables warm *)
let test_memo_clear_per_domain () =
  let c : (int, int) Memo.cache =
    Memo.create ~name:"test_par_clear_per_domain" ~hash:Hashtbl.hash ~equal:Int.equal
  in
  Memo.clear_all ();
  ignore (Memo.cached c 1 (fun () -> 10));
  let filled = Atomic.make false and cleared = Atomic.make false in
  let other =
    Domain.spawn (fun () ->
        ignore (Memo.cached c 1 (fun () -> 20));
        Atomic.set filled true;
        while not (Atomic.get cleared) do
          Domain.cpu_relax ()
        done;
        let kept = Memo.cached c 1 (fun () -> 30) in
        Memo.clear_all ();
        (kept, Memo.cached c 1 (fun () -> 40)))
  in
  while not (Atomic.get filled) do
    Domain.cpu_relax ()
  done;
  Memo.clear_all ();
  Atomic.set cleared true;
  let kept, after = Domain.join other in
  check_int "the other domain keeps its entry" 20 kept;
  check_int "its own clear_all drops it" 40 after;
  check_int "the caller's entry is gone" 50 (Memo.cached c 1 (fun () -> 50))

(* ----- concurrent independent fixpoints (the cqlserved execution model) ----- *)

let flights_p =
  {|r1: reach(madison).
r2: reach(D) :- reach(S), flight(S, D, T, C), C <= 400.
r3: hops(D, N) :- reach(D), flight(S, D, T, C), hops(S, M), N = M + 1, N <= 6.
r4: hops(madison, 0).
#query reach.
|}

let flights_edb =
  edb_of
    {|flight(madison, chicago, 60, 80).
flight(chicago, newark, 110, 160).
flight(newark, boston, 50, 90).
flight(boston, madison, 190, 340).
flight(chicago, seattle, 230, 390).
flight(seattle, anchorage, 210, 420).
flight(newark, madison, 140, 170).
|}

let sorted_all res =
  List.map (fun (p, fs) -> (p, List.sort Fact.compare fs)) (List.sort compare (Engine.all_facts res))

let check_runs_agree name r1 rn =
  let s1 = Engine.stats r1 and sn = Engine.stats rn in
  check_int (name ^ ": iterations") s1.Engine.iterations sn.Engine.iterations;
  check_int (name ^ ": derivations") s1.Engine.derivations sn.Engine.derivations;
  check_int (name ^ ": facts_added") s1.Engine.facts_added sn.Engine.facts_added;
  check_bool (name ^ ": fixpoint") s1.Engine.reached_fixpoint sn.Engine.reached_fixpoint;
  check_bool (name ^ ": all facts equal") true
    (List.equal
       (fun (p, fs) (q, gs) -> p = q && List.equal Fact.equal fs gs)
       (sorted_all r1) (sorted_all rn))

(* two engine runs on two domains at once — as two server requests — must
   not observe each other through any process-global pipeline state *)
let test_concurrent_fixpoints () =
  let p = parse flights_p in
  let reference = Engine.run p ~edb:flights_edb in
  let domains =
    Array.init 2 (fun _ -> Domain.spawn (fun () -> Engine.run p ~edb:flights_edb))
  in
  Array.iteri
    (fun i r -> check_runs_agree (Printf.sprintf "domain %d" i) reference r)
    (Array.map Domain.join domains)

(* generated cases across the three constraint modes, 10 each *)
let generated_cases () =
  let module G = Cql_gen.Generate in
  let rng = Cql_gen.Rng.create 7 in
  List.concat_map
    (fun mode ->
      let config = G.default mode in
      List.init 10 (fun _ ->
          let rec draw () =
            match G.case (Cql_gen.Rng.split rng) config with
            | case -> case
            | exception G.Exhausted _ -> draw ()
          in
          (mode, draw ())))
    [ G.Decidable; G.Linear; G.Int ]

(* constraint_rewrite, then an evaluation of its output, under the case's
   constraint domain (ℤ for int cases).  The scope is entered inside the
   call, so it holds on whichever domain runs it. *)
let rewrite_and_run (mode, (p, edb)) =
  let cdom = if mode = Cql_gen.Generate.Int then Cdomain.Z else Cdomain.Q in
  Cdomain.with_domain cdom @@ fun () ->
  match Cql_core.Rewrite.constraint_rewrite ~max_iters:20 p with
  | exception (Invalid_argument _ | Failure _) -> None
  | p', _ ->
      let res = Engine.run ~max_iterations:25 ~max_derivations:20_000 p' ~edb in
      let s = Engine.stats res in
      Some
        ( p',
          Engine.answers res p',
          s.Engine.derivations,
          s.Engine.reached_fixpoint )

(* the cases split between two domains running at once must each match
   their sequential run: rewritten program (mod renaming: fresh variables
   come from a process-wide counter), sorted answers, derivation count and
   fixpoint flag *)
let test_concurrent_generated_cases () =
  let cases = generated_cases () in
  let sequential = List.map rewrite_and_run cases in
  let concurrent =
    let cases = Array.of_list cases in
    let results = Array.make (Array.length cases) None in
    let run k () =
      Array.iteri (fun i case -> if i mod 2 = k then results.(i) <- rewrite_and_run case) cases
    in
    List.iter Domain.join (List.init 2 (fun k -> Domain.spawn (run k)));
    Array.to_list results
  in
  let rewritten = List.length (List.filter Option.is_some sequential) in
  check_bool "most cases rewrite" true (rewritten >= 20);
  List.iteri
    (fun i (seq, conc) ->
      let name = Printf.sprintf "case %d" i in
      match (seq, conc) with
      | None, None -> ()
      | Some (p1, a1, d1, f1), Some (p2, a2, d2, f2) ->
          check_bool (name ^ ": rewritten program") true (Program.equal_mod_renaming p1 p2);
          check_bool (name ^ ": answers") true (List.equal Fact.equal a1 a2);
          check_int (name ^ ": derivations") d1 d2;
          check_bool (name ^ ": fixpoint") f1 f2
      | _ -> Alcotest.failf "%s: constraint_rewrite applies on one side only" name)
    (List.combine sequential concurrent)

let () =
  Alcotest.run "concurrency"
    [
      ( "reentrancy",
        [
          Alcotest.test_case "two concurrent fixpoints" `Quick test_concurrent_fixpoints;
          Alcotest.test_case "generated cases as pool jobs" `Quick
            test_concurrent_generated_cases;
        ] );
      ("terms", [ Alcotest.test_case "4-domain stress" `Quick test_terms_across_domains ]);
      ("interning", [ Alcotest.test_case "fresh vars unique" `Quick test_fresh_vars_parallel ]);
      ( "memo",
        [
          Alcotest.test_case "per-domain isolation" `Quick test_memo_domain_isolation;
          Alcotest.test_case "agreement across domains" `Quick test_memo_results_agree_across_domains;
          Alcotest.test_case "clear_local is per-domain" `Quick test_memo_clear_per_domain;
        ] );
    ]
