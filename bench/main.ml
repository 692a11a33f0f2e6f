(* Benchmark & reproduction harness.

   One experiment per table, figure and worked example of the paper
   (see DESIGN.md's per-experiment index and EXPERIMENTS.md for the
   paper-vs-measured record):

     table1 table2 fig1 fig2 ex41 ex51 ex43 ex44 ex61 d1 d2 optimal
     ablation-disjuncts ablation-single bound
     fuzz compiled incremental int serve

   Usage:
     dune exec bench/main.exe              run every experiment
     dune exec bench/main.exe -- <id>...   run selected experiments
     dune exec bench/main.exe -- time      Bechamel wall-clock timings
     dune exec bench/main.exe -- json      run every experiment once and
                                           write BENCH_results.json

   The incremental, int and serve experiments carry checks: when one
   fails, the run finishes (json writes its file) and exits 1. *)

open Cql_num
open Cql_constr
open Cql_datalog
open Cql_eval
open Cql_core
module Reference = Cql_gen.Reference
module J = Cql_serve.Json

let parse = Parser.program_of_string
let edb_of s = List.map Fact.of_fact_rule (Parser.facts_of_string s)
let conj = Conj.of_list
let n i = Linexpr.of_int i
let arg i = Linexpr.var (Var.arg i)

let header title = Printf.printf "\n==================== %s ====================\n" title
let paper fmt = Printf.printf ("  paper:    " ^^ fmt ^^ "\n")
let measured fmt = Printf.printf ("  measured: " ^^ fmt ^^ "\n")

(* checks whose failure makes the run exit 1, once every requested
   experiment (and json's file) is done *)
let failed_checks = ref []
let check name ok = if not ok then failed_checks := name :: !failed_checks

let time_ms f =
  let t0 = Cql_obs.Obs.monotonic_ns () in
  let r = f () in
  (r, Int64.to_float (Int64.sub (Cql_obs.Obs.monotonic_ns ()) t0) /. 1e6)

(* [(name, value)] for every registered Obs counter whose name starts with
   [prefix], the prefix stripped *)
let counters_with prefix =
  let k = String.length prefix in
  List.filter_map
    (fun (name, v) ->
      if String.starts_with ~prefix name then
        Some (String.sub name k (String.length name - k), J.Int v)
      else None)
    (Cql_obs.Obs.counters ())

(* ----- shared programs ----- *)

let fib_src value =
  Printf.sprintf
    {|
r1: fib(0, 1).
r2: fib(1, 1).
r3: fib(N, X1 + X2) :- N > 1, fib(N - 1, X1), fib(N - 2, X2).
?- fib(N, %d).
|}
    value

let fib_magic value = Magic.inline_seed (Magic.templates_complete (parse (fib_src value)))

let fib_constraint_result () : Pred_constraints.result =
  let cset = Cset.of_conj (conj [ Atom.ge (arg 2) (n 1) ]) in
  { Pred_constraints.constraints = [ ("fib", cset) ]; iterations = 1; converged = true }

let fib_magic_constrained value =
  Magic.inline_seed
    (Magic.templates_complete
       (Pred_constraints.propagate (fib_constraint_result ()) (parse (fib_src value))))

let flights_src =
  {|
r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.
r2: cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.
r3: flight(Src, Dst, Time, Cost) :- singleleg(Src, Dst, Time, Cost), Cost > 0, Time > 0.
r4: flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2),
                          T = T1 + T2 + 30, C = C1 + C2.
#query cheaporshort.
|}

(* seeded synthetic single-leg network: cycle over m cities *)
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

let d1_src =
  {|
r1: q(X, Y) :- a1(X, Y), X <= 4.
r2: a1(X, Y) :- b1(X, Z), a2(Z, Y).
r3: a2(X, Y) :- b2(X, Y).
r4: a2(X, Y) :- b2(X, Z), a2(Z, Y).
#query q.
|}

let d2_src =
  {|
r1: q(X, Y) :- a1(X, Y).
r2: a1(X, Y) :- b1(X, Z), X <= 4, a2(Z, Y).
r3: a2(X, Y) :- b2(X, Y).
r4: a2(X, Y) :- b2(X, Z), a2(Z, Y).
#query q.
|}

let segments_edb nsrc seg =
  String.concat "\n"
    (List.concat
       (List.init nsrc (fun i ->
            Printf.sprintf "b1(%d, %d)." i (100 * i)
            :: List.init seg (fun j ->
                   Printf.sprintf "b2(%d, %d)." ((100 * i) + j) ((100 * i) + j + 1)))))
  |> edb_of

let ex61_src =
  {|
r1: p(X, Y) :- U > 10, q(X, U, V), W > V, p(W, Y).
r2: p(X, Y) :- u(X, Y).
r3: q(X, Y, Z) :- q1(X, U), q2(W, Y), q3(U, W, Z).
?- X > 10, p(X, Y).
|}

let magic_ff = Rewrite.Magic { adornment = "ff"; constraint_magic = true }

let idb_count prog edb =
  let res = Engine.run ~max_iterations:30 ~max_derivations:200_000 prog ~edb in
  Engine.total_idb_facts res ~edb

(* ----- Table 1 ----- *)

let print_table_trace res =
  let trace = Engine.trace res in
  let by_iter = Hashtbl.create 16 in
  List.iter
    (fun (t : Engine.trace_entry) ->
      let l = try Hashtbl.find by_iter t.Engine.iteration with Not_found -> [] in
      Hashtbl.replace by_iter t.Engine.iteration (t :: l))
    trace;
  let iters =
    List.sort_uniq compare (List.map (fun (t : Engine.trace_entry) -> t.Engine.iteration) trace)
  in
  Printf.printf "  %-10s %s\n" "Iteration" "Derivations made (subsumed facts marked *)";
  List.iter
    (fun i ->
      let items = List.rev (Hashtbl.find by_iter i) in
      let cells =
        List.map
          (fun (t : Engine.trace_entry) ->
            Printf.sprintf "%s:%s%s" t.Engine.rule_label (Fact.to_string t.Engine.fact)
              (if t.Engine.subsumed then "*" else ""))
          items
      in
      Printf.printf "  %-10d {%s}\n" i (String.concat ", " cells))
    iters

let run_table1 () =
  header "TABLE 1: bottom-up evaluation of P_fib^mg (diverges)";
  paper "answer fib(4,5) in iteration 7; evaluation does not terminate; m_fib constraint facts computed";
  let res = Engine.run ~max_iterations:8 ~traced:true (fib_magic 5) ~edb:[] in
  print_table_trace res;
  let ans_iter =
    List.find_map
      (fun (t : Engine.trace_entry) ->
        if
          (not t.Engine.subsumed)
          && Fact.pred t.Engine.fact = "fib"
          && Fact.ground_value t.Engine.fact 1 = Some (Rat.of_int 4)
        then Some t.Engine.iteration
        else None)
      (Engine.trace res)
  in
  let has_constraint_fact =
    List.exists
      (fun (t : Engine.trace_entry) ->
        Fact.pred t.Engine.fact = "m_fib" && not (Fact.is_ground t.Engine.fact))
      (Engine.trace res)
  in
  measured "answer at iteration %s; fixpoint=%b (capped at 8); m_fib constraint facts=%b"
    (match ans_iter with Some i -> string_of_int i | None -> "-")
    (Engine.stats res).Engine.reached_fixpoint has_constraint_fact

(* ----- Table 2 ----- *)

let run_table2 () =
  header "TABLE 2: bottom-up evaluation of P_fib^mg_1 (terminates)";
  paper "answer fib(4,5) in iteration 7; terminates after iteration 8 (no new derivations)";
  let res = Engine.run ~max_iterations:30 ~traced:true (fib_magic_constrained 5) ~edb:[] in
  print_table_trace res;
  measured "fixpoint=%b after %d iterations; %d derivations"
    (Engine.stats res).Engine.reached_fixpoint (Engine.stats res).Engine.iterations
    (Engine.stats res).Engine.derivations

(* ----- Figure 1: Balbin et al. pipeline ----- *)

let ex41_src =
  {|
r1: q(X) :- p1(X, Y), p2(Y), X + Y <= 6, X >= 2.
r2: p1(X, Y) :- b1(X, Y).
r3: p2(X) :- b2(X).
#query q.
|}

let ex41_edb () =
  edb_of
    (String.concat "\n"
       (List.init 30 (fun i -> Printf.sprintf "b1(%d, %d). b2(%d)." (i mod 10) (i / 2) i)))

let run_fig1 () =
  header "FIGURE 1: Balbin et al. pipeline (adorn -> C-transform -> magic) vs ours";
  paper "the C transformation treats constraints as literals; it cannot constrain p2 in Example 4.1";
  let p = parse ex41_src in
  let balbin_prog, brep = Rewrite.balbin ~adornment:"f" p in
  let ours, _ = Rewrite.optimal ~adornment:"f" p in
  let bq = Option.get brep.Rewrite.qrp_constraints in
  Printf.printf "  C-transform QRP for p2: %s   (ours: $1 <= 4)\n"
    (Cset.to_string (Qrp.find bq "p2_bf"));
  let edb = ex41_edb () in
  let nb = idb_count balbin_prog edb and no = idb_count ours edb in
  measured "with magic     balbin: %d facts   pred,qrp,mg: %d facts   (ours <= balbin: %b)" nb no
    (no <= nb);
  (* without the magic pass the missing inference is visible directly *)
  let c_only = Qrp.propagate (Qrp.gen_syntactic p) p in
  let qrp_only = Qrp.propagate (Qrp.gen p) p in
  let nc = idb_count c_only edb and nq = idb_count qrp_only edb in
  measured "without magic  C-transform: %d facts   QRP propagation: %d facts (semantic inference wins)"
    nc nq

(* ----- Figure 2: GMT pipeline ----- *)

let ex61_edb () =
  edb_of
    {|
u(20, 1). u(5, 2). u(40, 9).
q1(20, 3). q1(40, 3). q2(4, 30). q3(3, 4, 7).
|}

let run_fig2 () =
  header "FIGURE 2: GMT pipeline (adorn bcf -> magic -> grounding)";
  paper
    "P^{ad,mg} has non-range-restricted magic rules; P^{ad,mg,gr} is range-restricted and query-equivalent";
  let p = parse ex61_src in
  let adorned = Gmt.adorn_bcf ~query_adornment:"ff" p in
  let pmg = Gmt.magic adorned in
  let grounded = Magic.inline_seed (Gmt.ground_fold_unfold ~adorned pmg) in
  measured "P^{ad,mg} range-restricted: %b   P^{ad,mg,gr} range-restricted: %b"
    (Program.is_range_restricted pmg)
    (Program.is_range_restricted grounded);
  let edb = ex61_edb () in
  let plain = Engine.run p ~edb in
  let ground = Engine.run grounded ~edb in
  let pq = Option.get p.Program.query and gq = Option.get grounded.Program.query in
  measured "answers: plain %d, grounded %d; grounded computes only ground facts: %b"
    (List.length (Engine.facts_of plain pq))
    (List.length (Engine.facts_of ground gq))
    (Engine.all_ground ground)

(* ----- Example 4.1 ----- *)

let run_ex41 () =
  header "EXAMPLE 4.1: semantic propagation through X + Y <= 6 & X >= 2";
  paper "minimum QRP constraints: p1 = ($1+$2<=6 & $1>=2), p2 = ($1<=4)";
  let p = parse ex41_src in
  let res = Qrp.gen p in
  measured "p1: %s" (Cset.to_string (Qrp.find res "p1"));
  measured "p2: %s" (Cset.to_string (Qrp.find res "p2"));
  let p' = Qrp.propagate res p in
  let edb = ex41_edb () in
  let before = Engine.run p ~edb and after = Engine.run p' ~edb in
  measured "p1 facts %d -> %d; p2 facts %d -> %d; answers equal: %b"
    (List.length (Engine.facts_of before "p1"))
    (List.length (Engine.facts_of after "p1'"))
    (List.length (Engine.facts_of before "p2"))
    (List.length (Engine.facts_of after "p2'"))
    (List.length (Engine.facts_of before "q") = List.length (Engine.facts_of after "q"))

(* ----- Example 5.1 / Theorem 5.1 ----- *)

let run_ex51 () =
  header "EXAMPLE 5.1 / THEOREM 5.1: the decidable class";
  paper "X op Y / X op c programs terminate within n*2^(2k^2+4k) iterations; Example 5.1 in 2";
  let p1 =
    parse
      {|
r1: q(X, Y) :- a(X, Y), X <= 10, Y <= X.
r2: a(X, Y) :- p(X, Y), Y <= X.
r3: a(X, Y) :- a(X, Z), Z <= X, a(Z, Y), Y <= Z.
#query q.
|}
  in
  let qres = Qrp.gen p1 in
  measured "Example 5.1: in_class=%b converged=%b iterations=%d (bound %s)"
    (Decidable.in_class p1) qres.Qrp.converged qres.Qrp.iterations
    (Bigint.to_string (Decidable.iteration_bound p1));
  measured "QRP for a: %s   (paper: $1<=10 & $2<=$1)" (Cset.to_string (Qrp.find qres "a"));
  let p2 = parse "q(X) :- a(X), X <= 5.\na(X) :- b(X).\na(X) :- a(X), X <= 3.\n#query q." in
  let q2 = Qrp.gen p2 in
  measured "arity-1 program: in_class=%b converged=%b iterations=%d (bound %s)"
    (Decidable.in_class p2) q2.Qrp.converged q2.Qrp.iterations
    (Bigint.to_string (Decidable.iteration_bound p2));
  (* outside the class, generation can diverge and falls back to true *)
  let p3 = parse "q(X) :- a(X), X <= 10.\na(X) :- b(X).\na(Y) :- a(X), Y = X - 1.\n#query q." in
  let q3 = Qrp.gen ~max_iters:8 p3 in
  measured "X op Y+c program: in_class=%b converged(8 iters)=%b -> fallback to true: %b"
    (Decidable.in_class p3) q3.Qrp.converged
    (Cset.is_tt (Qrp.find q3 "a"))

(* ----- Example 4.3: flights sweep ----- *)

let run_ex43 () =
  header "EXAMPLE 4.3: flights -- P vs P' vs P^{pred,qrp,mg}";
  paper "P' computes no flight fact with T>240 & C>150 and only ground facts; P computes many";
  let p = parse flights_src in
  let p', _ = Rewrite.constraint_rewrite p in
  let popt, _ = Rewrite.optimal ~adornment:"ffff" p in
  Printf.printf "  %-8s %12s %12s %14s %12s %12s\n" "cities" "P flights" "P irrelev."
    "P' flights'" "P derivs" "P' derivs";
  List.iter
    (fun m ->
      let edb = singleleg_edb (100 + m) m in
      let budget = 30_000 in
      let before = Engine.run ~max_iterations:10 ~max_derivations:budget p ~edb in
      let after = Engine.run ~max_iterations:10 ~max_derivations:budget p' ~edb in
      let irrelevant facts =
        List.length
          (List.filter
             (fun f ->
               match (Fact.ground_value f 3, Fact.ground_value f 4) with
               | Some t, Some c ->
                   Rat.compare t (Rat.of_int 240) > 0 && Rat.compare c (Rat.of_int 150) > 0
               | _ -> false)
             facts)
      in
      Printf.printf "  %-8d %12d %12d %14d %12d %12d\n" m
        (List.length (Engine.facts_of before "flight"))
        (irrelevant (Engine.facts_of before "flight"))
        (List.length (Engine.facts_of after "flight'"))
        (Engine.stats before).Engine.derivations
        (Engine.stats after).Engine.derivations)
    [ 4; 6; 8; 10 ];
  let edb = singleleg_edb 108 8 in
  let after = Engine.run ~max_iterations:10 p' ~edb in
  let opt = Engine.run ~max_iterations:10 popt ~edb in
  measured "P' total facts %d; P^{pred,qrp,mg} total facts %d; both ground-only: %b"
    (Engine.total_idb_facts after ~edb)
    (Engine.total_idb_facts opt ~edb)
    (Engine.all_ground after && Engine.all_ground opt)

(* ----- Example 4.4 ----- *)

let run_ex44 () =
  header "EXAMPLE 4.4: termination of the rewritten backward Fibonacci";
  paper "?- fib(N,5) answers N=4 and terminates; ?- fib(N,6) answers no and terminates";
  let r5 = Engine.run ~max_iterations:30 (fib_magic_constrained 5) ~edb:[] in
  let answers = List.filter_map (fun f -> Fact.ground_value f 1) (Engine.facts_of r5 "q_") in
  measured "fib(N,5): fixpoint=%b answers N = %s"
    (Engine.stats r5).Engine.reached_fixpoint
    (String.concat ", " (List.map Rat.to_string answers));
  let r6 = Engine.run ~max_iterations:40 (fib_magic_constrained 6) ~edb:[] in
  measured "fib(N,6): fixpoint=%b answers=%d"
    (Engine.stats r6).Engine.reached_fixpoint
    (List.length (Engine.facts_of r6 "q_"));
  let r5m = Engine.run ~max_iterations:9 (fib_magic 5) ~edb:[] in
  measured "unconstrained P_fib^mg for comparison: fixpoint after 9 iterations = %b (diverges)"
    (Engine.stats r5m).Engine.reached_fixpoint

(* ----- Example 6.1 ----- *)

let run_ex61 () =
  header "EXAMPLE 6.1: fold/unfold captures the GMT grounding step";
  paper "final program {r41,r43,r51,r53,r61,r62,r11,r21,r31}: 9 range-restricted rules";
  let p = parse ex61_src in
  let adorned = Gmt.adorn_bcf ~query_adornment:"ff" p in
  let pmg = Gmt.magic adorned in
  let final = Magic.inline_seed (Gmt.ground_fold_unfold ~adorned pmg) in
  measured "groundable=%b; rules=%d (9 + query rule); range-restricted=%b"
    (Gmt.groundable adorned)
    (List.length final.Program.rules)
    (Program.is_range_restricted final);
  print_endline "  final program:";
  List.iter (fun r -> Printf.printf "    %s\n" (Rule.to_string (Rule.prettify r))) final.Program.rules

(* ----- D.1 / D.2 ----- *)

let run_d1 () =
  header "EXAMPLE 7.1 / D.1: P^{qrp,mg} beats P^{mg,qrp}";
  paper "rule mr2 is more restrictive in P^{qrp,mg}; fewer facts for all EDBs";
  let p = parse d1_src in
  let qrp_mg, _ = Rewrite.sequence [ Rewrite.Qrp; magic_ff ] p in
  let mg_qrp, _ = Rewrite.sequence [ magic_ff; Rewrite.Qrp ] p in
  Printf.printf "  %-10s %14s %14s\n" "sources" "qrp,mg facts" "mg,qrp facts";
  List.iter
    (fun nsrc ->
      let edb = segments_edb nsrc 5 in
      Printf.printf "  %-10d %14d %14d\n" nsrc (idb_count qrp_mg edb) (idb_count mg_qrp edb))
    [ 6; 12; 24 ];
  measured "qrp,mg <= mg,qrp on every row above"

let run_d2 () =
  header "EXAMPLE 7.2 / D.2: P^{mg,qrp} beats P^{qrp,mg}";
  paper "rule mr1 is more restrictive in P^{mg,qrp} (m_a1(X) :- m_q(X), X <= 4)";
  let p = parse d2_src in
  let magic_bf = Rewrite.Magic { adornment = "bf"; constraint_magic = true } in
  let qrp_mg, _ = Rewrite.sequence [ Rewrite.Qrp; magic_bf ] p in
  let mg_qrp, _ = Rewrite.sequence [ magic_bf; Rewrite.Qrp ] p in
  let constrained_m_a1 prog =
    List.exists
      (fun (r : Rule.t) ->
        String.length r.Rule.head.Literal.pred >= 4
        && String.sub r.Rule.head.Literal.pred 0 4 = "m_a1"
        && not (Conj.is_tt r.Rule.cstr))
      prog.Program.rules
  in
  measured "m_a1 rule constrained: qrp,mg=%b mg,qrp=%b" (constrained_m_a1 qrp_mg)
    (constrained_m_a1 mg_qrp)

(* ----- Theorem 7.10: optimal ordering sweep ----- *)

let run_optimal () =
  header "THEOREM 7.10: P^{pred,qrp,mg} is optimal among one-magic sequences";
  paper "pred,qrp,mg computes a subset of the facts of every other ordering";
  let p = parse flights_src in
  let mg = Rewrite.Magic { adornment = "ffff"; constraint_magic = true } in
  let orderings =
    [
      ("mg", [ mg ]);
      ("pred,mg", [ Rewrite.Pred; mg ]);
      ("qrp,mg", [ Rewrite.Qrp; mg ]);
      ("pred,qrp,mg", [ Rewrite.Pred; Rewrite.Qrp; mg ]);
      ("qrp,pred,mg", [ Rewrite.Qrp; Rewrite.Pred; mg ]);
      ("mg,pred,qrp", [ mg; Rewrite.Pred; Rewrite.Qrp ]);
      ("mg,qrp", [ mg; Rewrite.Qrp ]);
    ]
  in
  let edb = singleleg_edb 77 7 in
  let results =
    List.map
      (fun (name, steps) ->
        let prog, _ = Rewrite.sequence steps p in
        let res = Engine.run ~max_iterations:10 ~max_derivations:30_000 prog ~edb in
        (name, Engine.total_idb_facts res ~edb))
      orderings
  in
  List.iter (fun (name, cnt) -> Printf.printf "  %-14s %6d facts\n" name cnt) results;
  let opt = List.assoc "pred,qrp,mg" results in
  measured "pred,qrp,mg minimal: %b" (List.for_all (fun (_, c) -> opt <= c) results)

(* ----- ablations (Section 4.6) ----- *)

let propagate_with f p =
  (* rewrite with a transformed QRP constraint set *)
  let p1, _ = Pred_constraints.gen_prop p in
  let res = Qrp.gen p1 in
  let res' =
    { res with Qrp.constraints = List.map (fun (k, c) -> (k, f c)) res.Qrp.constraints }
  in
  Qrp.propagate res' p1

let run_ablation_disjuncts () =
  header "ABLATION (Section 4.6): overlapping vs non-overlapping disjuncts";
  paper "non-overlapping disjuncts avoid duplicate derivations but multiply rules";
  let p = parse flights_src in
  let aux_body = Literal.fresh_args "cheaporshort" 4 in
  let p_aux, _ = Program.with_query_rule p [ aux_body ] Conj.tt in
  let overlapping = propagate_with (fun c -> c) p_aux in
  let disjoint = propagate_with Cset.disjointify p_aux in
  let edb = singleleg_edb 55 7 in
  let run prog =
    let res = Engine.run ~max_iterations:10 ~max_derivations:30_000 prog ~edb in
    ((Engine.stats res).Engine.derivations, Engine.total_idb_facts res ~edb)
  in
  let do_, fo = run overlapping in
  let dd, fd = run disjoint in
  Printf.printf "  %-16s %8s %12s %8s\n" "variant" "rules" "derivations" "facts";
  Printf.printf "  %-16s %8d %12d %8d\n" "overlapping"
    (List.length overlapping.Program.rules)
    do_ fo;
  Printf.printf "  %-16s %8d %12d %8d\n" "disjoint" (List.length disjoint.Program.rules) dd fd;
  measured "disjoint derivations <= overlapping: %b; disjoint needs more rules: %b" (dd <= do_)
    (List.length disjoint.Program.rules >= List.length overlapping.Program.rules)

let run_ablation_single () =
  header "ABLATION (Section 4.6): bounding the QRP constraint to one disjunct";
  paper "single-disjunct QRP for flight is ($3>0 & $4>0): sound, but prunes nothing extra";
  let p = parse flights_src in
  let aux_body = Literal.fresh_args "cheaporshort" 4 in
  let p_aux, _ = Program.with_query_rule p [ aux_body ] Conj.tt in
  let full = propagate_with (fun c -> c) p_aux in
  let single = propagate_with (fun c -> Cset.of_conj (Cset.weaken_to_one c)) p_aux in
  let edb = singleleg_edb 55 7 in
  let run prog =
    let res = Engine.run ~max_iterations:10 ~max_derivations:30_000 prog ~edb in
    Engine.total_idb_facts res ~edb
  in
  let nf = run full and ns = run single in
  Printf.printf "  full disjunctive: %d facts over %d rules\n" nf
    (List.length full.Program.rules);
  Printf.printf "  single disjunct : %d facts over %d rules\n" ns
    (List.length single.Program.rules);
  measured "single-disjunct computes at least as many facts: %b" (ns >= nf)

(* ----- Theorem 5.1 bound sweep ----- *)

let run_bound () =
  header "THEOREM 5.1: measured iterations vs the combinatorial bound";
  paper "for most programs the bound is considerably loose (footnote 7)";
  Printf.printf "  %-30s %6s %10s %22s\n" "program" "arity" "iterations" "bound n*2^(2k^2+4k)";
  let progs =
    [
      ( "Example 5.1 (k=2)",
        {|
q(X, Y) :- a(X, Y), X <= 10, Y <= X.
a(X, Y) :- p(X, Y), Y <= X.
a(X, Y) :- a(X, Z), Z <= X, a(Z, Y), Y <= Z.
#query q.
|} );
      ("unary chain (k=1)", "q(X) :- a(X), X <= 5.\na(X) :- b(X).\na(X) :- a(X), X <= 3.\n#query q.");
      ( "two-pred (k=2)",
        "q(X, Y) :- a(X, Y), X <= 7.\na(X, Y) :- b(X, Y), Y <= X.\na(X, Y) :- a(Y, X).\n#query q." );
    ]
  in
  List.iter
    (fun (name, src) ->
      let p = parse src in
      assert (Decidable.in_class p);
      let pres = Pred_constraints.gen p in
      let qres = Qrp.gen (Pred_constraints.propagate pres p) in
      let k =
        List.fold_left (fun acc pr -> max acc (Program.arity p pr)) 0 (Program.predicates p)
      in
      Printf.printf "  %-30s %6d %10d %22s\n" name k
        (pres.Pred_constraints.iterations + qres.Qrp.iterations)
        (Bigint.to_string (Decidable.iteration_bound p)))
    progs;
  measured "all converged far below the bound"

(* ----- differential fuzzing (lib/gen) ----- *)

let fuzz_seed = 42
let fuzz_count = 200

let fuzz_summaries () =
  let module G = Cql_gen.Generate in
  let module H = Cql_gen.Harness in
  List.map
    (fun mode ->
      (mode, H.run ~config:(G.default mode) ~seed:fuzz_seed ~count:fuzz_count ()))
    [ G.Decidable; G.Linear ]

let run_fuzz () =
  let module G = Cql_gen.Generate in
  let module H = Cql_gen.Harness in
  header "FUZZ: differential testing of every pipeline against the oracles";
  paper "(no paper counterpart -- implementation validation of Theorems 4.7/4.8, 5.1, 6.2, 7.10)";
  List.iter
    (fun (mode, s) ->
      Printf.printf "  mode=%-9s " (G.mode_to_string mode);
      Format.printf "%a" H.pp_summary s)
    (fuzz_summaries ())

(* best-of-[reps] wall time: minimum filters out GC / scheduler noise *)
let time_best reps f =
  let best = ref infinity in
  let last = ref None in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    last := Some r;
    if dt < !best then best := dt
  done;
  (!best, Option.get !last)

(* ----- compiled join plans (lib/eval/compile) ----- *)

let compiled_reps = 3

type compiled_row = {
  cw_name : string;
  cw_wall_s : float;
  cw_bytes : float;
  cw_derivations : int;
  cw_answers_match : bool;  (** answers match the seed reference evaluator *)
  cw_reference_derivations : int;
}

(* the three timing workloads: the raw recursive flights program (join-heavy,
   budget-capped), the constrained backward Fibonacci after magic rewriting,
   and D.1 under qrp,mg.  Each runs on the production engine (the compiled
   executor); the [Gc.allocated_bytes] delta of one run over its derivation
   count is the bytes-per-derivation figure *)
let compiled_workloads () =
  let d1qm, _ = Rewrite.sequence [ Rewrite.Qrp; magic_ff ] (parse d1_src) in
  [
    ("flights-P", parse flights_src, singleleg_edb 110 16, 8, 30_000);
    ("fib-magic", fib_magic_constrained 5, [], 30, 200_000);
    ("d1-qrp-mg", d1qm, segments_edb 12 5, 30, 200_000);
  ]

(* the bytes [f ()] allocates.  OCaml 5.1's [Gc.allocated_bytes] counts
   each word still in the minor heap as one byte, so a delta is exact only
   between two minor collections; without them a run smaller than the
   minor heap read an eighth of its minor allocation, or all of it,
   depending on whether a collection fell inside the run *)
let allocated f =
  Gc.minor ();
  let a0 = Gc.allocated_bytes () in
  ignore (f ());
  Gc.minor ();
  Gc.allocated_bytes () -. a0

let compiled_row (name, prog, edb, mi, md) =
  let run () = Engine.run ~max_iterations:mi ~max_derivations:md prog ~edb in
  let secs, res = time_best compiled_reps run in
  let bytes = allocated run in
  (* the seed reference evaluator under the same budgets: derivation counts
     must agree, and so must the answers wherever the run ends on an
     iteration boundary *)
  let reference = Reference.run ~max_iterations:mi ~max_derivations:md prog ~edb in
  let sorted fs = List.sort compare (List.map Fact.to_string fs) in
  {
    cw_name = name;
    cw_wall_s = secs;
    cw_bytes = bytes;
    cw_derivations = (Engine.stats res).Engine.derivations;
    cw_answers_match =
      sorted (Engine.answers res prog) = sorted (Reference.answers reference prog);
    cw_reference_derivations = (Reference.stats reference).Reference.derivations;
  }

let compiled_rows () = List.map compiled_row (compiled_workloads ())

let bytes_per_derivation r =
  if r.cw_derivations > 0 then r.cw_bytes /. float_of_int r.cw_derivations else 0.0

let run_compiled () =
  header "COMPILED: register-frame join plans, checked against the seed reference";
  paper "(no paper counterpart -- rule-execution backend)";
  Printf.printf "  %-12s %12s %14s %11s %12s %s\n" "workload" "wall" "allocated" "derivations"
    "bytes/deriv" "vs reference";
  List.iter
    (fun r ->
      Printf.printf "  %-12s %9.3f ms %11.1f MB %11d %12.0f answers=%b,derivations=%d/%d\n"
        r.cw_name (r.cw_wall_s *. 1000.) (r.cw_bytes /. 1e6) r.cw_derivations
        (bytes_per_derivation r) r.cw_answers_match r.cw_derivations r.cw_reference_derivations)
    (compiled_rows ())

(* ----- incremental view maintenance (Engine.materialize/insert/retract) ----- *)

let incremental_legs = 48
let incremental_updates = 12
let incremental_reps = 3

(* one rep of the stream on a fresh view: each single-leg retraction (and
   the re-insertion that undoes it) timed as maintenance and as a
   from-scratch evaluation of the same EDB; returns the materialization
   time, both time lists, whether every step's answers matched and the
   view's size *)
let incremental_max_iterations = 1_000
let incremental_max_derivations = 5_000_000

let incremental_rep p edb =
  let max_iterations = incremental_max_iterations
  and max_derivations = incremental_max_derivations in
  let scratch_answers edb =
    let res = Engine.run ~max_iterations ~max_derivations p ~edb in
    if not (Engine.stats res).Engine.reached_fixpoint then
      failwith "incremental: from-scratch run truncated (raise the budgets)";
    Engine.answers res p
  in
  let (vw, ms0), materialize_ms =
    time_ms (fun () -> Engine.materialize ~max_iterations ~max_derivations p ~edb)
  in
  Fun.protect ~finally:(fun () -> Engine.close_view vw) @@ fun () ->
  if not ms0.Engine.m_complete then failwith "incremental: materialization truncated";
  let maintain_ms = ref [] and scratch_ms = ref [] and answers_match = ref true in
  let step op victim =
    let ms, m_ms = time_ms (fun () -> op vw [ victim ]) in
    maintain_ms := m_ms :: !maintain_ms;
    if not ms.Engine.m_complete then failwith "incremental: maintenance truncated";
    let answers, s_ms = time_ms (fun () -> scratch_answers (Engine.view_edb vw)) in
    scratch_ms := s_ms :: !scratch_ms;
    if not (List.equal Fact.equal answers (Engine.view_answers vw)) then answers_match := false
  in
  let leg_facts = Array.of_list edb in
  for k = 0 to incremental_updates - 1 do
    (* spread the retractions over the chain; middle legs delete the most *)
    let victim = leg_facts.(((k * 7) + 3) mod Array.length leg_facts) in
    step Engine.retract victim;
    step Engine.insert victim
  done;
  ( materialize_ms,
    List.rev !maintain_ms,
    List.rev !scratch_ms,
    !answers_match,
    Engine.view_total vw )

(* Example 1.1's flights program over a generated acyclic chain network:
   the update stream of [incremental_rep], run [incremental_reps] times on
   fresh views; the check fails unless every step's answers match and
   maintenance is faster on average in every rep.  What materializing the
   view allocates is recorded against a plain run of the same EDB. *)
let incremental () =
  let legs = incremental_legs in
  let p = parse flights_src in
  let edb =
    edb_of
      (String.concat "\n"
         (List.init legs (fun i ->
              Printf.sprintf "singleleg(city%d, city%d, %d, %d)." i (i + 1)
                (20 + (i * 37 mod 120))
                (15 + (i * 53 mod 140)))))
  in
  let max_iterations = incremental_max_iterations
  and max_derivations = incremental_max_derivations in
  let run_bytes = allocated (fun () -> Engine.run ~max_iterations ~max_derivations p ~edb) in
  let materialize_bytes =
    allocated (fun () ->
        Engine.close_view (fst (Engine.materialize ~max_iterations ~max_derivations p ~edb)))
  in
  measured "allocated: run=%.1fMB materialize=%.1fMB (%.2fx)" (run_bytes /. 1e6)
    (materialize_bytes /. 1e6) (materialize_bytes /. run_bytes);
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l)) in
  let p50 l = match List.sort compare l with [] -> 0.0 | s -> List.nth s (List.length s / 2) in
  let runs =
    List.init incremental_reps (fun rep ->
        let materialize_ms, maintain, scratch, answers_match, facts = incremental_rep p edb in
        let speedup = if mean maintain > 0.0 then mean scratch /. mean maintain else 0.0 in
        let faster = mean maintain < mean scratch in
        measured "rep %d: legs=%d updates=%d facts=%d answers_match=%b" (rep + 1) legs
          (List.length maintain) facts answers_match;
        measured "rep %d: materialize=%.2fms maintain: mean=%.3fms p50=%.3fms" (rep + 1)
          materialize_ms (mean maintain) (p50 maintain);
        measured "rep %d: from-scratch: mean=%.3fms p50=%.3fms; speedup=%.2fx faster=%b"
          (rep + 1) (mean scratch) (p50 scratch) speedup faster;
        ( (speedup, faster, answers_match, facts),
          J.Obj
            [
              ("materialize_ms", J.Float materialize_ms);
              ("maintain_mean_ms", J.Float (mean maintain));
              ("maintain_p50_ms", J.Float (p50 maintain));
              ("scratch_mean_ms", J.Float (mean scratch));
              ("scratch_p50_ms", J.Float (p50 scratch));
              ("speedup", J.Float speedup);
              ("maintenance_faster", J.Bool faster);
            ] ))
  in
  let results = List.map fst runs in
  let speedups = List.sort compare (List.map (fun (s, _, _, _) -> s) results) in
  let faster = List.for_all (fun (_, f, _, _) -> f) results in
  let answers_match = List.for_all (fun (_, _, a, _) -> a) results in
  let median = p50 speedups in
  let lo = List.hd speedups and hi = List.nth speedups (List.length speedups - 1) in
  measured "speedup over %d reps: median=%.2fx min=%.2fx max=%.2fx; faster in every rep=%b"
    incremental_reps median lo hi faster;
  check "incremental" (answers_match && faster);
  J.Obj
    [
      ("program", J.Str "flights (Example 1.1)");
      ("network", J.Str (Printf.sprintf "acyclic chain, %d legs" legs));
      ("updates", J.Int (2 * incremental_updates));
      ("facts", J.Int (match results with (_, _, _, n) :: _ -> n | [] -> 0));
      ("run_allocated_bytes", J.Int (Float.to_int run_bytes));
      ("materialize_allocated_bytes", J.Int (Float.to_int materialize_bytes));
      ("materialize_alloc_ratio", J.Float (materialize_bytes /. run_bytes));
      ("reps", J.Int incremental_reps);
      ("runs", J.List (List.map snd runs));
      ("speedup_median", J.Float median);
      ("speedup_min", J.Float lo);
      ("speedup_max", J.Float hi);
      ("maintenance_faster", J.Bool faster);
      ("answers_match", J.Bool answers_match);
    ]

let run_incremental () =
  header "INCREMENTAL: view maintenance vs from-scratch re-evaluation";
  paper "(no paper counterpart -- materialized views under single-leg updates)";
  ignore (incremental ())

(* ----- integer domain (Cdomain.Z) ----- *)

let range lo n = List.init n (fun i -> lo + i)

(* Two workloads whose constraints sit on the ℚ/ℤ boundary: meeting-slot
   scheduling (strict windows plus a scaled duration bound, 2E - 2S >= 3,
   that tightens to E - S >= 2 over the integers) and a flights variant
   with a divisibility-constrained voucher (3V in [10, 14] pins V = 4 over
   ℤ).  Each workload is [(name, program, edb, points)], where [points]
   pairs every integer grid point with whether the query should hold on
   it, enumerated here in OCaml *)
let int_workloads () =
  let calendar = [ ("alice", 9, 12); ("alice", 14, 18); ("bob", 10, 16); ("carol", 8, 10) ] in
  let avail p s e =
    List.exists (fun (p', lo, hi) -> p' = p && s >= lo && e <= hi && s < e) calendar
  in
  let persons = [ "alice"; "bob"; "carol" ] in
  let num i = Term.Num (Rat.of_int i) in
  let scheduling_points =
    List.concat_map
      (fun p1 ->
        List.concat_map
          (fun p2 ->
            List.concat_map
              (fun s ->
                List.map
                  (fun e ->
                    ( [ Term.Sym p1; Term.Sym p2; num s; num e ],
                      avail p1 s e && avail p2 s e && (2 * e) - (2 * s) >= 3 && s <= 12 ))
                  (range 8 11))
              (range 8 11))
          persons)
      persons
  in
  let leg_costs = [ 7; 6; 9; 8; 5 ] in
  let n = List.length leg_costs in
  let city i = Printf.sprintf "c%d" i in
  (* contiguous chain: the only reach(ci, cj) cost is the segment sum *)
  let cost i j = List.fold_left ( + ) 0 (List.filteri (fun k _ -> k >= i && k < j) leg_costs) in
  let flights_points =
    List.concat_map
      (fun i ->
        List.concat_map
          (fun j ->
            if j <= i then []
            else
              List.concat_map
                (fun c ->
                  List.map
                    (fun v ->
                      ( [ Term.Sym (city i); Term.Sym (city j); num c; num v ],
                        c = cost i j && 3 * v >= 10 && 3 * v <= 14 && c <= 5 * v ))
                    (range 0 7))
                (range 0 (cost 0 n + 2)))
          (range 0 (n + 1)))
      (range 0 (n + 1))
  in
  [
    ( "scheduling",
      {|
r1: slot(P1, P2, S, E) :- avail(P1, S, E), avail(P2, S, E).
r2: avail(P, S, E) :- calendar(P, LO, HI), S >= LO, E <= HI, S < E.
r3: good(P1, P2, S, E) :- slot(P1, P2, S, E), 2*E - 2*S >= 3, S <= 12.
#query good.
|},
      String.concat "\n"
        (List.map (fun (p, lo, hi) -> Printf.sprintf "calendar(%s, %d, %d)." p lo hi) calendar),
      scheduling_points );
    ( "integer_flights",
      {|
r1: reach(S, D, C) :- leg(S, D, C).
r2: reach(S, D, C) :- reach(S, M, C1), leg(M, D, C2), C = C1 + C2.
r3: voucher(V) :- 3*V >= 10, 3*V <= 14.
r4: deal(S, D, C, V) :- reach(S, D, C), voucher(V), C <= 5*V.
#query deal.
|},
      String.concat "\n"
        (List.mapi (fun i c -> Printf.sprintf "leg(%s, %s, %d)." (city i) (city (i + 1)) c)
           leg_costs),
      flights_points );
  ]

(* The integer-domain answers of both the original program and its pred,qrp
   rewrite are verified point by point against the brute-force grid; the
   rational run of the same workload is the timing baseline *)
let int_workload (name, src, edb_src, points) =
  let p = parse src in
  let edb = edb_of edb_src in
  let arity = Program.arity p (Option.get p.Program.query) in
  let run_domain d =
    Cdomain.with_domain d @@ fun () ->
    Memo.clear_all ();
    Cql_obs.Obs.zero "solver.";
    let p', rewrite_ms =
      time_ms (fun () -> fst (Rewrite.sequence ~max_iters:50 [ Rewrite.Pred; Rewrite.Qrp ] p))
    in
    let res, eval_ms = time_ms (fun () -> Engine.run p ~edb) in
    let res', eval_rw_ms = time_ms (fun () -> Engine.run p' ~edb) in
    let n_answers = List.length (Engine.answers res p) and facts = Engine.total_facts res' in
    let line =
      Printf.sprintf "  %s: rewrite=%.2fms eval=%.2fms eval(rw)=%.2fms answers=%d facts=%d"
        (Cdomain.to_string d) rewrite_ms eval_ms eval_rw_ms n_answers facts
    in
    let row =
      [
        ("rewrite_ms", J.Float rewrite_ms);
        ("eval_ms", J.Float eval_ms);
        ("eval_rewritten_ms", J.Float eval_rw_ms);
        ("answers", J.Int n_answers);
        ("facts", J.Int facts);
      ]
    in
    (Engine.answers res p, Engine.answers res' p', line, row)
  in
  let expected = List.length (List.filter snd points) in
  let _, _, rat_line, rat = run_domain Cdomain.Q in
  let za, za_rw, int_line, int = run_domain Cdomain.Z in
  let int = int @ counters_with "solver.int." in
  (* membership of every grid point in the ℤ answers, original and
     rewritten, must match the enumerated expectation in both directions *)
  let bad answers =
    Cdomain.with_domain Cdomain.Z @@ fun () ->
    let neutral =
      List.filter_map
        (fun f ->
          if Fact.arity f = arity then Some (Fact.make "x" f.Fact.args (Fact.cstr f)) else None)
        answers
    in
    List.length
      (List.filter
         (fun (args, holds) ->
           let g = Fact.ground "x" args in
           List.exists (fun f -> Fact.subsumes f g) neutral <> holds)
         points)
  in
  let bad = bad za and bad_rw = bad za_rw in
  let ok = bad = 0 && bad_rw = 0 in
  measured "%s: grid=%d expected=%d bruteforce_match=%b (orig bad=%d, rewritten bad=%d)" name
    (List.length points) expected ok bad bad_rw;
  measured "%s" rat_line;
  measured "%s" int_line;
  check "int" ok;
  ( name,
    J.Obj
      [
        ("grid_points", J.Int (List.length points));
        ("expected_points", J.Int expected);
        ("bruteforce_match", J.Bool ok);
        ("rat", J.Obj rat);
        ("int", J.Obj int);
      ] )

let int_experiment () = J.Obj (List.map int_workload (int_workloads ()))

let run_int () =
  header "INT: the integer domain, checked against brute-force grids";
  paper "(no paper counterpart -- constraints decided over Z instead of Q)";
  ignore (int_experiment ())

(* ----- serving (lib/serve): cqlserved under concurrent load ----- *)

let serve_clients = 4
let serve_requests_per_client = 25

(* an in-process server driven by Loadgen: every answer is checked against
   one-shot evaluation, so this doubles as an end-to-end correctness run;
   the check fails on any failed request or differing answer *)
let serve () =
  let module S = Cql_serve in
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cql-bench-serve-%d.sock" (Unix.getpid ()))
  in
  let t = S.Server.start (S.Server.default_config ~socket_path:socket) in
  let r =
    Fun.protect
      ~finally:(fun () ->
        S.Server.stop t;
        S.Server.wait t)
      (fun () ->
        S.Loadgen.run ~socket ~clients:serve_clients
          ~requests_per_client:serve_requests_per_client)
  in
  match r with
  | Error msg ->
      measured "FAILED: %s" msg;
      check "serve" false;
      J.Obj [ ("error", J.Str msg) ]
  | Ok r ->
      let open S.Loadgen in
      measured "clients=%d requests=%d ok=%d errors=%d cache_hits=%d answers_match=%b" r.clients
        r.total_requests r.ok r.errors r.cache_hits r.answers_match;
      measured "p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms throughput=%.1f req/s" r.p50_ms
        r.p95_ms r.p99_ms r.max_ms r.throughput_rps;
      measured "warm (%d hits): p50=%.2fms p99=%.2fms; cold (%d misses): p50=%.2fms p99=%.2fms"
        r.cache_hits r.warm_p50_ms r.warm_p99_ms r.cache_misses r.cold_p50_ms r.cold_p99_ms;
      check "serve" (r.errors = 0 && r.answers_match);
      to_json r

let run_serve () =
  header "SERVE: cqlserved under concurrent load (plan cache + admission)";
  paper "(no paper counterpart -- the persistent multi-tenant query service)";
  ignore (serve ())

(* ----- Bechamel timings ----- *)

let timing_tests () =
  let open Bechamel in
  let edb8 = singleleg_edb 108 8 in
  let flights = parse flights_src in
  let flights', _ = Rewrite.constraint_rewrite flights in
  let d1 = parse d1_src in
  let d1edb = segments_edb 4 3 in
  let d1qm, _ = Rewrite.sequence [ Rewrite.Qrp; magic_ff ] d1 in
  let d1mq, _ = Rewrite.sequence [ magic_ff; Rewrite.Qrp ] d1 in
  [
    Test.make ~name:"rewrite/constraint_rewrite(flights)"
        (Staged.stage (fun () -> ignore (Rewrite.constraint_rewrite flights)));
      Test.make ~name:"rewrite/gmt(ex61)"
        (Staged.stage (fun () -> ignore (Gmt.pipeline ~query_adornment:"ff" (parse ex61_src))));
      Test.make ~name:"eval/flights-P(8, capped)"
        (Staged.stage (fun () ->
             (* budget keeps the P-vs-P' contrast visible (P' needs ~a tenth
                of this) while the whole suite stays under a minute *)
             ignore (Engine.run ~max_iterations:6 ~max_derivations:1500 flights ~edb:edb8)));
      Test.make ~name:"eval/flights-P'(8)"
        (Staged.stage (fun () -> ignore (Engine.run ~max_iterations:10 flights' ~edb:edb8)));
      Test.make ~name:"eval/fib-magic-constrained"
        (Staged.stage
           (let pmg = fib_magic_constrained 5 in
            fun () -> ignore (Engine.run ~max_iterations:30 pmg ~edb:[])));
      Test.make ~name:"eval/d1-qrp-mg" (Staged.stage (fun () -> ignore (idb_count d1qm d1edb)));
      Test.make ~name:"eval/d1-mg-qrp" (Staged.stage (fun () -> ignore (idb_count d1mq d1edb)));
      Test.make ~name:"solver/sat-simplex"
        (Staged.stage
           (let atoms =
              Conj.to_list
                (conj
                   [ Atom.le (Linexpr.add (arg 1) (arg 2)) (n 6); Atom.ge (arg 1) (n 2);
                     Atom.lt (arg 3) (arg 1); Atom.ge (arg 3) (n 0) ])
            in
            fun () -> ignore (Simplex.is_sat atoms)));
      Test.make ~name:"solver/sat-fourier-motzkin"
        (Staged.stage
           (let c =
              conj
                [ Atom.le (Linexpr.add (arg 1) (arg 2)) (n 6); Atom.ge (arg 1) (n 2);
                  Atom.lt (arg 3) (arg 1); Atom.ge (arg 3) (n 0) ]
            in
            fun () -> ignore (Conj.is_tt (Conj.project ~keep:Var.Set.empty c))));
      Test.make ~name:"solver/implication"
        (Staged.stage (fun () ->
             let c =
               conj [ Atom.le (Linexpr.add (arg 1) (arg 2)) (n 6); Atom.ge (arg 1) (n 2) ]
             in
             ignore (Conj.implies_atom c (Atom.le (arg 2) (n 4)))));
      Test.make ~name:"solver/implication-cached"
        (Staged.stage
           (* prebuilt terms and a warmed cache: the steady-state cost of a
              repeated implication query (one table lookup) *)
           (let c = conj [ Atom.le (Linexpr.add (arg 1) (arg 2)) (n 6); Atom.ge (arg 1) (n 2) ] in
            let d = conj [ Atom.le (arg 2) (n 4) ] in
            ignore (Conj.implies c d);
            fun () -> ignore (Conj.implies c d)));
  ]

(* [measure_timings tests] is [(name, ns-per-run option)] in test order *)
let measure_timings tests =
  let open Bechamel in
  let open Bechamel.Toolkit in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.fold
        (fun name ols_result acc ->
          let est =
            match Analyze.OLS.estimates ols_result with Some [ ns ] -> Some ns | _ -> None
          in
          (name, est) :: acc)
        analyzed [])
    tests

let run_timings () =
  header "WALL-CLOCK TIMINGS (Bechamel, monotonic clock)";
  Printf.printf "  %-40s %16s\n" "benchmark" "time/run";
  List.iter
    (fun (name, est) ->
      match est with
      | Some ns ->
          if ns > 1_000_000.0 then Printf.printf "  %-40s %13.3f ms\n" name (ns /. 1e6)
          else if ns > 1_000.0 then Printf.printf "  %-40s %13.3f us\n" name (ns /. 1e3)
          else Printf.printf "  %-40s %13.1f ns\n" name ns
      | None -> Printf.printf "  %-40s %16s\n" name "n/a")
    (measure_timings (timing_tests ()))

(* ----- machine-readable results: bench/main.exe json -> BENCH_results.json ----- *)

let stats_json (s : Engine.stats) =
  J.Obj
    [
      ("iterations", J.Int s.Engine.iterations);
      ("derivations", J.Int s.Engine.derivations);
      ("facts_added", J.Int s.Engine.facts_added);
      ("reached_fixpoint", J.Bool s.Engine.reached_fixpoint);
      ("index_probes", J.Int s.Engine.index_probes);
      ("index_hits", J.Int s.Engine.index_hits);
      ("facts_skipped", J.Int s.Engine.facts_skipped);
      ("subsumptions_avoided", J.Int s.Engine.subsumptions_avoided);
    ]

(* flights (constraint-rewritten, terminating) on the indexed store: the
   answers match the seed reference evaluator, and the store counters
   quantify the join probes indexing saved *)
let json_flights_store () =
  let p = parse flights_src in
  let p', _ = Rewrite.constraint_rewrite p in
  List.map
    (fun m ->
      let edb = singleleg_edb (100 + m) m in
      let ri = Engine.run ~max_iterations:10 p' ~edb in
      let rs = Reference.run ~max_iterations:10 p' ~edb in
      let si = Engine.stats ri in
      let considered = si.Engine.index_hits + si.Engine.facts_skipped in
      J.Obj
        [
          ("cities", J.Int m);
          ("edb_facts", J.Int (List.length edb));
          ("flight_facts", J.Int (List.length (Engine.facts_of ri "flight'")));
          ("answer_facts", J.Int (List.length (Engine.answers ri p')));
          ( "answers_match_reference",
            J.Bool
              (List.sort compare (List.map Fact.to_string (Engine.answers ri p'))
              = List.sort compare (List.map Fact.to_string (Reference.answers rs p'))) );
          ("indexed", stats_json si);
          ("probe_candidates_without_index", J.Int considered);
          ("probe_candidates_with_index", J.Int si.Engine.index_hits);
          ( "join_probe_reduction",
            J.Float
              (if considered = 0 then 0.0
               else 1.0 -. (float_of_int si.Engine.index_hits /. float_of_int considered)) );
        ])
    [ 4; 6; 8; 10 ]

let json_d1 () =
  let p = parse d1_src in
  let qrp_mg, _ = Rewrite.sequence [ Rewrite.Qrp; magic_ff ] p in
  let mg_qrp, _ = Rewrite.sequence [ magic_ff; Rewrite.Qrp ] p in
  List.map
    (fun nsrc ->
      let edb = segments_edb nsrc 5 in
      J.Obj
        [
          ("sources", J.Int nsrc);
          ("edb_facts", J.Int (List.length edb));
          ("qrp_mg_facts", J.Int (idb_count qrp_mg edb));
          ("mg_qrp_facts", J.Int (idb_count mg_qrp edb));
        ])
    [ 6; 12; 24 ]

let json_optimal () =
  let p = parse flights_src in
  let mg = Rewrite.Magic { adornment = "ffff"; constraint_magic = true } in
  let orderings =
    [
      ("mg", [ mg ]);
      ("pred,mg", [ Rewrite.Pred; mg ]);
      ("qrp,mg", [ Rewrite.Qrp; mg ]);
      ("pred,qrp,mg", [ Rewrite.Pred; Rewrite.Qrp; mg ]);
      ("mg,qrp", [ mg; Rewrite.Qrp ]);
    ]
  in
  let edb = singleleg_edb 77 7 in
  List.map
    (fun (name, steps) ->
      let prog, _ = Rewrite.sequence steps p in
      let res = Engine.run ~max_iterations:10 ~max_derivations:30_000 prog ~edb in
      J.Obj
        [ ("ordering", J.Str name); ("idb_facts", J.Int (Engine.total_idb_facts res ~edb)) ])
    orderings

let json_fib () =
  let res = Engine.run ~max_iterations:30 (fib_magic_constrained 5) ~edb:[] in
  J.Obj
    [
      ("query", J.Str "fib(N, 5) via constrained magic rewriting");
      ("stats", stats_json (Engine.stats res));
      ("answers", J.Int (List.length (Engine.facts_of res "q_")));
    ]

let json_fuzz () =
  let module G = Cql_gen.Generate in
  let module H = Cql_gen.Harness in
  List.map
    (fun (mode, (s : H.summary)) ->
      let st = s.H.stats in
      J.Obj
        [
          ("mode", J.Str (G.mode_to_string mode));
          ("seed", J.Int s.H.seed);
          ("programs_generated", J.Int st.H.cases);
          ("programs_evaluated", J.Int st.H.evaluated);
          ("oracle_checks_passed", J.Int st.H.checks);
          ("rewrites_skipped", J.Int st.H.rewrites_skipped);
          ("rewrites_unconverged", J.Int st.H.rewrites_unconverged);
          ("runs_truncated", J.Int st.H.runs_truncated);
          ( "mean_facts_derived",
            J.Float
              (if st.H.evaluated = 0 then 0.0
               else float_of_int st.H.facts_derived /. float_of_int st.H.evaluated) );
          ("all_oracles_passed", J.Bool (s.H.failure = None));
        ])
    (fuzz_summaries ())

(* every solver.* counter in the Obs registry (each cache's hits and misses
   among them, as memo.<cache>.hits/.misses), then each cache's entries and
   the totals over all caches *)
let solver_json () =
  let caches = Memo.stats () in
  let total f = List.fold_left (fun acc c -> acc + f c) 0 caches in
  let hits = total (fun c -> c.Memo.hits) and misses = total (fun c -> c.Memo.misses) in
  J.Obj
    (counters_with "solver."
    @ [
        ( "caches",
          J.List
            (List.map
               (fun (c : Memo.table_stats) ->
                 J.Obj [ ("name", J.Str c.Memo.name); ("entries", J.Int c.Memo.entries) ])
               caches) );
        ("cache_hits", J.Int hits);
        ("cache_misses", J.Int misses);
        ( "cache_hit_rate",
          J.Float
            (if hits + misses = 0 then 0.0
             else float_of_int hits /. float_of_int (hits + misses)) );
      ])

(* decision-procedure call counts and cache hit rates over two representative
   workloads, each run once from cold caches and zeroed counters *)
let json_solver_cache () =
  let workload name f =
    Memo.clear_all ();
    Cql_obs.Obs.zero "solver.";
    f ();
    (name, solver_json ())
  in
  [
    workload "rewrite_flights" (fun () ->
        ignore (Rewrite.constraint_rewrite (parse flights_src)));
    workload "fuzz_decidable_50" (fun () ->
        let module G = Cql_gen.Generate in
        let module H = Cql_gen.Harness in
        ignore (H.run ~config:(G.default G.Decidable) ~seed:fuzz_seed ~count:50 ()));
  ]

(* per-phase wall-clock timings from the lib/obs tracing subsystem over two
   representative pipelines (rewrite + evaluate), each run with tracing armed
   and a cleared event buffer; [spans] aggregates by span name *)
let json_trace () =
  let module Obs = Cql_obs.Obs in
  let was_enabled = Obs.enabled () in
  Obs.set_enabled true;
  Obs.reset ();
  let workload name f =
    Obs.reset ();
    f ();
    let spans =
      List.map
        (fun (r : Obs.summary_row) ->
          J.Obj
            [
              ("span", J.Str r.Obs.sr_name);
              ("count", J.Int r.Obs.sr_count);
              ("total_ns", J.Int (Int64.to_int r.Obs.sr_total_ns));
              ("max_ns", J.Int (Int64.to_int r.Obs.sr_max_ns));
            ])
        (Obs.summary ())
    in
    (name, J.Obj [ ("spans", J.List spans); ("events", J.Int (List.length (Obs.events ()))) ])
  in
  let rows =
    [
      workload "rewrite_flights" (fun () ->
          ignore (Rewrite.constraint_rewrite (parse flights_src)));
      workload "eval_flights_rewritten" (fun () ->
          let p = parse flights_src in
          let p', _ = Rewrite.constraint_rewrite p in
          ignore (Engine.run ~max_iterations:10 p' ~edb:(singleleg_edb 108 8)));
    ]
  in
  Obs.reset ();
  Obs.set_enabled was_enabled;
  rows

(* the production engine on the three timing workloads: wall time, bytes
   allocated and bytes per derivation; [answers_match_reference] and the
   derivation pair compare against the seed reference evaluator *)
let json_compiled () =
  let runs =
    List.map
      (fun r ->
        J.Obj
          [
            ("workload", J.Str r.cw_name);
            ("reps", J.Int compiled_reps);
            ("wall_seconds", J.Float r.cw_wall_s);
            ("allocated_bytes", J.Int (Float.to_int r.cw_bytes));
            ("derivations", J.Int r.cw_derivations);
            ( "bytes_per_derivation",
              J.Int (Float.to_int (Float.round (bytes_per_derivation r))) );
            ("answers_match_reference", J.Bool r.cw_answers_match);
            ("reference_derivations", J.Int r.cw_reference_derivations);
            ("derivations_match", J.Bool (r.cw_derivations = r.cw_reference_derivations));
          ])
      (compiled_rows ())
  in
  J.Obj [ ("runs", J.List runs); ("compile_counters", J.Obj (counters_with "engine.compile.")) ]

(* every experiment once, in document order; serve goes last, after the
   timings, so nothing else runs after its server and client domains exit *)
let run_json () =
  let flights_store = json_flights_store () in
  let d1 = json_d1 () in
  let optimal = json_optimal () in
  let fib = json_fib () in
  let fuzz = json_fuzz () in
  let solver_cache = json_solver_cache () in
  let trace = json_trace () in
  let compiled = json_compiled () in
  let incremental = incremental () in
  let int = int_experiment () in
  let timings =
    List.map
      (fun (name, est) ->
        J.Obj
          [
            ("name", J.Str name);
            ("ns_per_run", match est with Some ns -> J.Float ns | None -> J.Null);
          ])
      (measure_timings (timing_tests ()))
  in
  let serve = serve () in
  let doc =
    J.to_string
      (J.Obj
         [
           ("schema", J.Str "cqlopt-bench-1");
           ("command", J.Str "dune exec bench/main.exe -- json");
           ( "experiments",
             J.Obj
               [
                 ("flights_store", J.List flights_store);
                 ("d1_rewrite_orderings", J.List d1);
                 ("optimal_orderings", J.List optimal);
                 ("fib_backward", fib);
                 ("fuzz", J.List fuzz);
                 ("solver_cache", J.Obj solver_cache);
                 ("trace", J.Obj trace);
                 ("compiled", compiled);
                 ("incremental", incremental);
                 ("int", int);
                 ("serve", serve);
               ] );
           ("timings", J.List timings);
         ])
    ^ "\n"
  in
  let oc = open_out "BENCH_results.json" in
  output_string oc doc;
  close_out oc;
  Printf.printf "wrote BENCH_results.json (%d bytes)\n" (String.length doc)

(* ----- driver ----- *)

(* in list order; the no-argument run is everything but json *)
let experiments =
  [
    ("table1", run_table1);
    ("table2", run_table2);
    ("fig1", run_fig1);
    ("fig2", run_fig2);
    ("ex41", run_ex41);
    ("ex51", run_ex51);
    ("ex43", run_ex43);
    ("ex44", run_ex44);
    ("ex61", run_ex61);
    ("d1", run_d1);
    ("d2", run_d2);
    ("optimal", run_optimal);
    ("ablation-disjuncts", run_ablation_disjuncts);
    ("ablation-single", run_ablation_single);
    ("bound", run_bound);
    ("fuzz", run_fuzz);
    ("compiled", run_compiled);
    ("incremental", run_incremental);
    ("int", run_int);
    ("time", run_timings);
    ("serve", run_serve);
    ("json", run_json);
  ]

let () =
  let ids =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> List.filter (fun id -> id <> "json") (List.map fst experiments)
    | ids -> ids
  in
  List.iter
    (fun id ->
      match List.assoc_opt id experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %s; known: %s\n" id
            (String.concat ", " (List.map fst experiments));
          exit 1)
    ids;
  match List.rev !failed_checks with
  | [] -> ()
  | names ->
      Printf.eprintf "failed checks: %s\n" (String.concat ", " names);
      exit 1
