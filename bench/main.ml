(* Benchmark & reproduction harness.

   One experiment per table, figure and worked example of the paper
   (see DESIGN.md's per-experiment index and EXPERIMENTS.md for the
   paper-vs-measured record):

     table1 table2 fig1 fig2 ex41 ex51 ex43 ex44 ex61 d1 d2 optimal
     ablation-disjuncts ablation-single ablation-stratified bound
     solver-interval fuzz serve compiled

   Usage:
     dune exec bench/main.exe              run every experiment
     dune exec bench/main.exe -- <id>...   run selected experiments
     dune exec bench/main.exe -- time      Bechamel wall-clock timings
     dune exec bench/main.exe -- json      write BENCH_results.json *)

open Cql_num
open Cql_constr
open Cql_datalog
open Cql_eval
open Cql_core
module Reference = Cql_gen.Reference

let parse = Parser.program_of_string
let edb_of s = List.map Fact.of_fact_rule (Parser.facts_of_string s)
let conj = Conj.of_list
let n i = Linexpr.of_int i
let arg i = Linexpr.var (Var.arg i)

let header title = Printf.printf "\n==================== %s ====================\n" title
let paper fmt = Printf.printf ("  paper:    " ^^ fmt ^^ "\n")
let measured fmt = Printf.printf ("  measured: " ^^ fmt ^^ "\n")

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

(* ----- engine ablation: stratified evaluation ----- *)

let run_ablation_stratified () =
  header "ABLATION (engine): SCC-stratified vs whole-program semi-naive";
  paper "(implementation ablation; no paper counterpart -- same facts, fewer wasted combinations)";
  let p = parse flights_src in
  let p', _ = Rewrite.constraint_rewrite p in
  Printf.printf "  %-10s %18s %18s %8s\n" "cities" "plain derivs" "stratified derivs" "equal?";
  List.iter
    (fun m ->
      let edb = singleleg_edb (200 + m) m in
      let r1 = Engine.run ~max_iterations:30 p' ~edb in
      let r2 = Engine.run_stratified ~max_iterations:30 p' ~edb in
      let c1 = Engine.total_idb_facts r1 ~edb and c2 = Engine.total_idb_facts r2 ~edb in
      Printf.printf "  %-10d %18d %18d %8b\n" m (Engine.stats r1).Engine.derivations
        (Engine.stats r2).Engine.derivations (c1 = c2))
    [ 6; 10; 14 ];
  measured "identical fact sets; stratified never does more derivations"

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

let compiled_row (name, prog, edb, mi, md) =
  let run () = Engine.run ~max_iterations:mi ~max_derivations:md prog ~edb in
  let secs, res = time_best compiled_reps run in
  let a0 = Gc.allocated_bytes () in
  ignore (run ());
  let bytes = Gc.allocated_bytes () -. a0 in
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

(* ----- serving (lib/serve): cqlserved under concurrent load ----- *)

let serve_clients = 4
let serve_requests_per_client = 15

(* in-process server + the cqlopt bench serve load generator: answers are
   checked against one-shot evaluation, so this doubles as an end-to-end
   correctness run *)
let serve_result () =
  let module S = Cql_serve in
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cql-bench-serve-%d.sock" (Unix.getpid ()))
  in
  let t = S.Server.start (S.Server.default_config ~socket_path:socket) in
  let r =
    S.Loadgen.run ~socket ~clients:serve_clients
      ~requests_per_client:serve_requests_per_client ()
  in
  S.Server.stop t;
  S.Server.wait t;
  r

let run_serve () =
  let module S = Cql_serve in
  header "SERVE: cqlserved under concurrent load (plan cache + admission)";
  paper "(no paper counterpart -- the persistent multi-tenant query service)";
  match serve_result () with
  | Error msg -> measured "FAILED: %s" msg
  | Ok r ->
      measured "clients=%d requests=%d ok=%d errors=%d cache_hits=%d answers_match=%b"
        r.S.Loadgen.clients r.S.Loadgen.total_requests r.S.Loadgen.ok r.S.Loadgen.errors
        r.S.Loadgen.cache_hits r.S.Loadgen.answers_match;
      measured "p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms throughput=%.1f req/s"
        r.S.Loadgen.p50_ms r.S.Loadgen.p95_ms r.S.Loadgen.p99_ms r.S.Loadgen.max_ms
        r.S.Loadgen.throughput_rps

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
      Test.make ~name:"solver/sat-interval-tier"
        (Staged.stage
           (* box-shaped conjunction the tier decides outright; env cache
              warmed, so this is the steady-state entailment-check cost *)
           (let c =
              conj
                [ Atom.le (arg 1) (n 6); Atom.ge (arg 1) (n 2);
                  Atom.lt (arg 3) (n 6); Atom.ge (arg 3) (n 0) ]
            in
            fun () -> ignore (Interval.sat ~id:(Conj.id c) (Conj.to_list c))));
      Test.make ~name:"solver/implication"
        (Staged.stage (fun () ->
             let c =
               conj [ Atom.le (Linexpr.add (arg 1) (arg 2)) (n 6); Atom.ge (arg 1) (n 2) ]
             in
             ignore (Conj.implies_atom c (Atom.le (arg 2) (n 4)))));
      Test.make ~name:"solver/implication-cached"
        (Staged.stage
           (* pre-interned terms and a warmed cache: the steady-state cost of
              a repeated implication query (two table lookups) *)
           (let c = conj [ Atom.le (Linexpr.add (arg 1) (arg 2)) (n 6); Atom.ge (arg 1) (n 2) ] in
            let a = Atom.le (arg 2) (n 4) in
            ignore (Conj.implies_atom c a);
            fun () -> ignore (Conj.implies_atom c a)));
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

(* hand-rolled JSON writer (the toolchain has no JSON library) *)
type json = Raw of string | Str of string | List of json list | Obj of (string * json) list

let rec write_json b = function
  | Raw s -> Buffer.add_string b s
  | Str s ->
      Buffer.add_char b '"';
      String.iter
        (function
          | '"' -> Buffer.add_string b "\\\""
          | '\\' -> Buffer.add_string b "\\\\"
          | '\n' -> Buffer.add_string b "\\n"
          | c -> Buffer.add_char b c)
        s;
      Buffer.add_char b '"'
  | List items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string b ", ";
          write_json b item)
        items;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          write_json b (Str k);
          Buffer.add_string b ": ";
          write_json b v)
        kvs;
      Buffer.add_char b '}'

let jint i = Raw (string_of_int i)
let jbool bo = Raw (string_of_bool bo)
let jfloat f = Raw (Printf.sprintf "%.3f" f)

let stats_json (s : Engine.stats) =
  Obj
    [
      ("iterations", jint s.Engine.iterations);
      ("derivations", jint s.Engine.derivations);
      ("facts_added", jint s.Engine.facts_added);
      ("reached_fixpoint", jbool s.Engine.reached_fixpoint);
      ("index_probes", jint s.Engine.index_probes);
      ("index_hits", jint s.Engine.index_hits);
      ("facts_skipped", jint s.Engine.facts_skipped);
      ("subsumptions_avoided", jint s.Engine.subsumptions_avoided);
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
      Obj
        [
          ("cities", jint m);
          ("edb_facts", jint (List.length edb));
          ("flight_facts", jint (List.length (Engine.facts_of ri "flight'")));
          ("answer_facts", jint (List.length (Engine.answers ri p')));
          ( "answers_match_reference",
            jbool
              (List.sort compare (List.map Fact.to_string (Engine.answers ri p'))
              = List.sort compare (List.map Fact.to_string (Reference.answers rs p'))) );
          ("indexed", stats_json si);
          ("probe_candidates_without_index", jint considered);
          ("probe_candidates_with_index", jint si.Engine.index_hits);
          ( "join_probe_reduction",
            jfloat
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
      Obj
        [
          ("sources", jint nsrc);
          ("edb_facts", jint (List.length edb));
          ("qrp_mg_facts", jint (idb_count qrp_mg edb));
          ("mg_qrp_facts", jint (idb_count mg_qrp edb));
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
      Obj [ ("ordering", Str name); ("idb_facts", jint (Engine.total_idb_facts res ~edb)) ])
    orderings

let json_fib () =
  let res = Engine.run ~max_iterations:30 (fib_magic_constrained 5) ~edb:[] in
  let s = Engine.stats res in
  Obj
    [
      ("query", Str "fib(N, 5) via constrained magic rewriting");
      ("stats", stats_json s);
      ("answers", jint (List.length (Engine.facts_of res "q_")));
    ]

let json_fuzz () =
  let module G = Cql_gen.Generate in
  let module H = Cql_gen.Harness in
  List.map
    (fun (mode, (s : H.summary)) ->
      let st = s.H.stats in
      Obj
        [
          ("mode", Str (G.mode_to_string mode));
          ("seed", jint s.H.seed);
          ("programs_generated", jint st.H.cases);
          ("programs_evaluated", jint st.H.evaluated);
          ("oracle_checks_passed", jint st.H.checks);
          ("rewrites_skipped", jint st.H.rewrites_skipped);
          ("rewrites_unconverged", jint st.H.rewrites_unconverged);
          ("runs_truncated", jint st.H.runs_truncated);
          ( "mean_facts_derived",
            jfloat
              (if st.H.evaluated = 0 then 0.0
               else float_of_int st.H.facts_derived /. float_of_int st.H.evaluated) );
          ("all_oracles_passed", jbool (s.H.failure = None));
        ])
    (fuzz_summaries ())

let solver_stats_json (s : Solver_stats.t) =
  Obj
    [
      ("sat_checks", jint s.Solver_stats.sat_checks);
      ("implies_checks", jint s.Solver_stats.implies_checks);
      ("implies_atom_checks", jint s.Solver_stats.implies_atom_checks);
      ("cset_implies_checks", jint s.Solver_stats.cset_implies_checks);
      ("project_calls", jint s.Solver_stats.project_calls);
      ("simplex_runs", jint s.Solver_stats.simplex_runs);
      ("simplex_pivots", jint s.Solver_stats.simplex_pivots);
      ("fm_eliminations", jint s.Solver_stats.fm_eliminations);
      ("pivot_limit_hits", jint s.Solver_stats.pivot_limit_hits);
      ("interval_env_builds", jint s.Solver_stats.interval_env_builds);
      ("interval_sat_hits", jint s.Solver_stats.interval_sat_hits);
      ("interval_implies_hits", jint s.Solver_stats.interval_implies_hits);
      ("interval_disjoint_hits", jint s.Solver_stats.interval_disjoint_hits);
      ("interval_bails", jint s.Solver_stats.interval_bails);
      ( "caches",
        List
          (List.map
             (fun (c : Memo.table_stats) ->
               Obj
                 [
                   ("name", Str c.Memo.name);
                   ("hits", jint c.Memo.hits);
                   ("misses", jint c.Memo.misses);
                   ("entries", jint c.Memo.entries);
                 ])
             s.Solver_stats.caches) );
      ("cache_hits", jint (Solver_stats.total_hits s));
      ("cache_misses", jint (Solver_stats.total_misses s));
      ("cache_hit_rate", jfloat (Solver_stats.hit_rate s));
    ]

(* decision-procedure call counts and cache hit rates over two representative
   workloads; each workload runs twice from cold caches and zeroed counters,
   once with the interval fast tier on and once with it off, so the
   before/after effect on exact-procedure calls is read off one block *)
let json_solver_cache () =
  let side on f =
    Interval.with_tier on (fun () ->
        Memo.clear_all ();
        Solver_stats.reset ();
        f ();
        solver_stats_json (Solver_stats.snapshot ()))
  in
  let workload name f =
    (name, Obj [ ("with_interval", side true f); ("without_interval", side false f) ])
  in
  [
    workload "rewrite_flights" (fun () ->
        ignore (Rewrite.constraint_rewrite (parse flights_src)));
    workload "fuzz_decidable_50" (fun () ->
        let module G = Cql_gen.Generate in
        let module H = Cql_gen.Harness in
        ignore (H.run ~config:(G.default G.Decidable) ~seed:fuzz_seed ~count:50 ()));
  ]

(* a deduplicated conjunction corpus drawn from generated programs' rule
   constraints — the interval tier's natural inputs *)
let solver_interval_corpus programs =
  let module G = Cql_gen.Generate in
  let module Rng = Cql_gen.Rng in
  let rng = Rng.create fuzz_seed in
  let rec collect acc k =
    if k = 0 then acc
    else
      let acc =
        match G.program (Rng.split rng) (G.default G.Decidable) with
        | p -> List.rev_append (List.map (fun r -> r.Rule.cstr) p.Program.rules) acc
        | exception G.Exhausted _ -> acc
      in
      collect acc (k - 1)
  in
  List.sort_uniq Conj.compare (collect [] programs)

let solver_interval_reps = 25

(* [Conj.is_sat] over the corpus and [Conj.implies] over consecutive pairs,
   tier forced on vs off; caches are cleared every rep so each query pays
   the decision cost rather than a memo lookup, which is exactly the cost
   the tier is meant to cut.  [exact_calls_avoided] is the simplex-run
   delta between the two sides *)
let json_solver_interval () =
  let corpus = solver_interval_corpus 40 in
  let pairs =
    let rec go = function c :: (d :: _ as rest) -> (c, d) :: go rest | _ -> [] in
    go corpus
  in
  let drive () =
    List.iter (fun c -> ignore (Conj.is_sat c)) corpus;
    List.iter (fun (c, d) -> ignore (Conj.implies c d)) pairs
  in
  let measure on =
    Interval.with_tier on (fun () ->
        Solver_stats.reset ();
        let t0 = Unix.gettimeofday () in
        for _ = 1 to solver_interval_reps do
          Memo.clear_all ();
          drive ()
        done;
        let dt = Unix.gettimeofday () -. t0 in
        (dt, Solver_stats.snapshot ()))
  in
  let dt_on, on = measure true in
  let dt_off, off = measure false in
  let side dt s =
    Obj [ ("wall_seconds", Raw (Printf.sprintf "%.6f" dt)); ("stats", solver_stats_json s) ]
  in
  Obj
    [
      ("corpus_conjunctions", jint (List.length corpus));
      ("implication_pairs", jint (List.length pairs));
      ("reps", jint solver_interval_reps);
      ("with_interval", side dt_on on);
      ("without_interval", side dt_off off);
      ( "exact_calls_avoided",
        jint (off.Solver_stats.simplex_runs - on.Solver_stats.simplex_runs) );
      ( "interval_hits",
        jint
          (on.Solver_stats.interval_sat_hits + on.Solver_stats.interval_implies_hits
         + on.Solver_stats.interval_disjoint_hits) );
      ("speedup", jfloat (if dt_on > 0.0 then dt_off /. dt_on else 0.0));
    ]

let run_solver_interval () =
  header "SOLVER INTERVAL FAST TIER (is_sat + implies, generated corpus)";
  match json_solver_interval () with
  | Obj fields ->
      let get k = List.assoc_opt k fields in
      let num = function
        | Some (Raw s) -> s
        | Some (Str s) -> s
        | _ -> "?"
      in
      let wall side =
        match get side with
        | Some (Obj f) -> num (List.assoc_opt "wall_seconds" f)
        | _ -> "?"
      in
      paper "interval tier decides box-shaped queries without simplex/FM";
      measured "corpus=%s conjunctions, %s implication pairs, %d reps"
        (num (get "corpus_conjunctions"))
        (num (get "implication_pairs"))
        solver_interval_reps;
      measured "wall: with tier %ss, without %ss (speedup %s)" (wall "with_interval")
        (wall "without_interval") (num (get "speedup"));
      measured "exact simplex runs avoided: %s (interval hits: %s)"
        (num (get "exact_calls_avoided"))
        (num (get "interval_hits"))
  | _ -> ()

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
          Obj
            [
              ("span", Str r.Obs.sr_name);
              ("count", jint r.Obs.sr_count);
              ("total_ns", Raw (Int64.to_string r.Obs.sr_total_ns));
              ("max_ns", Raw (Int64.to_string r.Obs.sr_max_ns));
            ])
        (Obs.summary ())
    in
    (name, Obj [ ("spans", List spans); ("events", jint (List.length (Obs.events ()))) ])
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
  let module Obs = Cql_obs.Obs in
  let runs =
    List.map
      (fun r ->
        Obj
          [
            ("workload", Str r.cw_name);
            ("reps", jint compiled_reps);
            ("wall_seconds", Raw (Printf.sprintf "%.6f" r.cw_wall_s));
            ("allocated_bytes", Raw (Printf.sprintf "%.0f" r.cw_bytes));
            ("derivations", jint r.cw_derivations);
            ("bytes_per_derivation", Raw (Printf.sprintf "%.0f" (bytes_per_derivation r)));
            ("answers_match_reference", jbool r.cw_answers_match);
            ("reference_derivations", jint r.cw_reference_derivations);
            ("derivations_match", jbool (r.cw_derivations = r.cw_reference_derivations));
          ])
      (compiled_rows ())
  in
  let counters =
    Obj
      (List.map
         (fun n -> (n, jint (Obs.value (Obs.counter ("engine.compile." ^ n)))))
         [ "programs_compiled"; "ops"; "frame_width"; "cache_hits" ])
  in
  Obj [ ("runs", List runs); ("compile_counters", counters) ]

(* cqlserved under concurrent load; the loadgen payload embeds via [Raw]
   since Loadgen.to_json prints through lib/serve's own JSON type *)
let json_serve () =
  let module S = Cql_serve in
  match serve_result () with
  | Error msg -> Obj [ ("error", Str msg) ]
  | Ok r -> Raw (S.Json.to_string (S.Loadgen.to_json r))

let run_json () =
  let timings =
    List.map
      (fun (name, est) ->
        Obj
          [
            ("name", Str name);
            ("ns_per_run", match est with Some ns -> jfloat ns | None -> Raw "null");
          ])
      (measure_timings (timing_tests ()))
  in
  let doc =
    Obj
      [
        ("schema", Str "cqlopt-bench-1");
        ("command", Str "dune exec bench/main.exe -- json");
        ( "experiments",
          Obj
            [
              ("flights_store", List (json_flights_store ()));
              ("d1_rewrite_orderings", List (json_d1 ()));
              ("optimal_orderings", List (json_optimal ()));
              ("fib_backward", json_fib ());
              ("fuzz", List (json_fuzz ()));
              ("solver_cache", Obj (json_solver_cache ()));
              ("solver_interval", json_solver_interval ());
              ("trace", Obj (json_trace ()));
              ("compiled", json_compiled ());
              ("serve", json_serve ());
            ] );
        ("timings", List timings);
      ]
  in
  let b = Buffer.create 4096 in
  write_json b doc;
  Buffer.add_char b '\n';
  let oc = open_out "BENCH_results.json" in
  output_string oc (Buffer.contents b);
  close_out oc;
  Printf.printf "wrote BENCH_results.json (%d bytes)\n" (Buffer.length b)

(* ----- driver ----- *)

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
    ("ablation-stratified", run_ablation_stratified);
    ("bound", run_bound);
    ("solver-interval", run_solver_interval);
    ("fuzz", run_fuzz);
    ("compiled", run_compiled);
    ("serve", run_serve);
    ("time", run_timings);
    ("json", run_json);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [] ->
      List.iter (fun (id, f) -> if id <> "time" && id <> "json" then f ()) experiments;
      run_timings ()
  | ids ->
      List.iter
        (fun id ->
          match List.assoc_opt id experiments with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown experiment %s; known: %s\n" id
                (String.concat ", " (List.map fst experiments));
              exit 1)
        ids
