(* Tests for the concurrency layer behind cqlserved: the domain pool's
   independent jobs, domain-safety of the interned constraint terms and
   memo caches, and independent fixpoints running on several domains at
   once. *)

open Cql_constr
open Cql_datalog
open Cql_eval
module Pool = Cql_par.Pool

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let parse = Parser.program_of_string
let edb_of s = List.map Fact.of_fact_rule (Parser.facts_of_string s)

exception Boom of int

(* ----- domain-safe interning ----- *)

(* four domains concurrently intern overlapping atoms and conjunctions;
   interning must hand every domain the same physical term for the same
   structure, with ids unique per structure *)
let test_interning_stress () =
  let build () =
    List.init 200 (fun k ->
        let a = Atom.le (Linexpr.var (Var.arg 1)) (Linexpr.of_int k) in
        let b = Atom.ge (Linexpr.var (Var.arg 2)) (Linexpr.of_int (k mod 17)) in
        (a, Conj.of_list [ a; b ]))
  in
  let domains = Array.init 4 (fun _ -> Domain.spawn build) in
  let results = Array.map Domain.join domains in
  let reference = build () in
  Array.iter
    (fun r ->
      List.iter2
        (fun (a, c) (a', c') ->
          check_bool "atom interned across domains" true (a == a');
          check_bool "conj interned across domains" true (c == c'))
        reference r)
    results;
  (* atoms and conjunctions draw from separate id counters; within each
     space, distinct structures must have distinct ids *)
  let atom_ids = List.map (fun (a, _) -> Atom.id a) reference in
  let conj_ids = List.map (fun (_, c) -> Conj.id c) reference in
  check_int "atom ids unique per structure" (List.length atom_ids)
    (List.length (List.sort_uniq compare atom_ids));
  check_int "conj ids unique per structure" (List.length conj_ids)
    (List.length (List.sort_uniq compare conj_ids))

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
  let c : (int, int) Memo.cache = Memo.create ~name:"test_par_isolation" in
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

(* ----- independent jobs (the executor behind cqlserved) ----- *)

let test_submit_await () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let jobs = List.init 20 (fun i -> Pool.submit pool (fun () -> i * i)) in
      check_bool "all values" true
        (List.map Pool.await jobs = List.init 20 (fun i -> i * i)))

let test_submit_concurrent () =
  (* two jobs that each wait for the other to start can only finish if they
     run on different workers at the same time *)
  Pool.with_pool ~jobs:3 (fun pool ->
      let started = Atomic.make 0 in
      let job () =
        Atomic.incr started;
        while Atomic.get started < 2 do
          Domain.cpu_relax ()
        done;
        Atomic.get started
      in
      let j1 = Pool.submit pool job and j2 = Pool.submit pool job in
      check_bool "both ran concurrently" true (Pool.await j1 = 2 && Pool.await j2 = 2))

let test_submit_exception () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let j = Pool.submit pool (fun () -> raise (Boom 7)) in
      let raised = match Pool.await j with _ -> None | exception Boom n -> Some n in
      check_bool "job exception re-raised in await" true (raised = Some 7);
      check_int "pool usable after a failed job" 5
        (Pool.await (Pool.submit pool (fun () -> 5))))

let test_submit_sequential () =
  Pool.with_pool ~jobs:1 (fun pool ->
      let ran = ref false in
      let j =
        Pool.submit pool (fun () ->
            ran := true;
            9)
      in
      check_bool "jobs=1 runs synchronously" true !ran;
      check_bool "already done" true (Pool.is_done j);
      check_int "value" 9 (Pool.await j));
  (* jobs below 1 clamp to 1 rather than failing *)
  Pool.with_pool ~jobs:0 (fun pool ->
      check_bool "jobs=0 clamped to the synchronous path" true
        (Pool.is_done (Pool.submit pool (fun () -> ()))))

let test_shutdown_drains () =
  (* queued-but-unstarted jobs are run in the caller during shutdown, so no
     await ever hangs *)
  let pool = Pool.create ~jobs:2 in
  let js = List.init 16 (fun i -> Pool.submit pool (fun () -> i)) in
  Pool.shutdown pool;
  check_bool "every await returns" true (List.map Pool.await js = List.init 16 Fun.id);
  check_bool "submit after shutdown rejected" true
    (match Pool.submit pool (fun () -> 0) with
    | _ -> false
    | exception Invalid_argument _ -> true)

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
   call, so a pool job sets it on whichever worker runs it. *)
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

(* every case submitted at once to one pool with two workers must match
   its sequential run: rewritten program (mod renaming: fresh variables
   come from a process-wide counter), sorted answers, derivation count and
   fixpoint flag.  One pool serves the whole test: interning domains that
   are spawned and joined round after round trip the weak-table defect
   recorded in ROADMAP.md (item 4). *)
let test_concurrent_generated_cases () =
  let cases = generated_cases () in
  let sequential = List.map rewrite_and_run cases in
  let concurrent =
    Pool.with_pool ~jobs:3 (fun pool ->
        List.map Pool.await
          (List.map (fun case -> Pool.submit pool (fun () -> rewrite_and_run case)) cases))
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

(* one request's scoped pivot budget must not leak into a concurrent
   request on another domain (the budget override is per-domain) *)
let test_pivot_limit_isolation () =
  (* needs one pivot per lower-bounded variable: 2 pivots, so budget 1 trips *)
  let atoms =
    [
      Atom.ge (Linexpr.var (Var.arg 1)) (Linexpr.of_int 1);
      Atom.ge (Linexpr.var (Var.arg 2)) (Linexpr.of_int 1);
      Atom.le (Linexpr.add (Linexpr.var (Var.arg 1)) (Linexpr.var (Var.arg 2)))
        (Linexpr.of_int 10);
    ]
  in
  let in_override = Atomic.make false in
  let release = Atomic.make false in
  let constrained =
    Domain.spawn (fun () ->
        Simplex.with_pivot_limit 1 (fun () ->
            let tripped =
              match Simplex.is_sat atoms with
              | _ -> false
              | exception Simplex.Pivot_limit _ -> true
            in
            Atomic.set in_override true;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done;
            tripped))
  in
  (* solve here strictly while the other domain holds its budget-1 scope *)
  while not (Atomic.get in_override) do
    Domain.cpu_relax ()
  done;
  let unaffected = match Simplex.is_sat atoms with s -> s | exception _ -> false in
  Atomic.set release true;
  check_bool "override effective on its own domain" true (Domain.join constrained);
  check_bool "concurrent domain keeps the process default" true unaffected

let () =
  Alcotest.run "cql_par"
    [
      ( "jobs",
        [
          Alcotest.test_case "submit/await" `Quick test_submit_await;
          Alcotest.test_case "jobs run concurrently" `Quick test_submit_concurrent;
          Alcotest.test_case "exception through await" `Quick test_submit_exception;
          Alcotest.test_case "jobs=1 synchronous path" `Quick test_submit_sequential;
          Alcotest.test_case "shutdown drains the queue" `Quick test_shutdown_drains;
        ] );
      ( "reentrancy",
        [
          Alcotest.test_case "two concurrent fixpoints" `Quick test_concurrent_fixpoints;
          Alcotest.test_case "pivot-limit isolation" `Quick test_pivot_limit_isolation;
          Alcotest.test_case "generated cases as pool jobs" `Quick
            test_concurrent_generated_cases;
        ] );
      ( "interning",
        [
          Alcotest.test_case "4-domain stress" `Quick test_interning_stress;
          Alcotest.test_case "fresh vars unique" `Quick test_fresh_vars_parallel;
        ] );
      ( "memo",
        [
          Alcotest.test_case "per-domain isolation" `Quick test_memo_domain_isolation;
          Alcotest.test_case "agreement across domains" `Quick test_memo_results_agree_across_domains;
        ] );
    ]
