(* One in-process evaluation as `cqlopt eval` does it — parse, load,
   rewrite, compile, run at jobs = 1 — with a span around each layer call. *)

open Cql_datalog
module Fact = Cql_eval.Fact
module Engine = Cql_eval.Engine
module Rewrite = Cql_core.Rewrite

(* like the CLI: a fact unsatisfiable in the domain denotes nothing *)
let fact_opt r = match Fact.of_fact_rule r with f -> Some f | exception Fact.Unsat -> None

let all_free (p : Program.t) =
  match p.Program.query with Some q -> String.make (Program.arity p q) 'f' | None -> ""

let pred_qrp p = Rewrite.constraint_rewrite p
let optimal p = Rewrite.optimal ~adornment:(all_free p) p

let count_rewrite tr (p' : Program.t) (r : Rewrite.report) =
  let unconverged conv n = if conv then 0 else n in
  let pred_iters, pred_unconv =
    match r.pred_constraints with
    | Some pr -> (pr.iterations, unconverged pr.converged (List.length pr.constraints))
    | None -> (0, 0)
  in
  let qrp_iters, qrp_unconv, disjuncts =
    match r.qrp_constraints with
    | Some q ->
        ( q.iterations,
          unconverged q.converged (List.length q.constraints),
          List.fold_left
            (fun acc (_, c) -> acc + List.length (Cql_constr.Cset.disjuncts c))
            0 q.constraints )
    | None -> (0, 0, 0)
  in
  Trace.count tr "rewrite.pred_iterations" (float_of_int pred_iters);
  Trace.count tr "rewrite.qrp_iterations" (float_of_int qrp_iters);
  Trace.count tr "rewrite.unconverged" (float_of_int (pred_unconv + qrp_unconv));
  Trace.count tr "rewrite.rules_out" (float_of_int (List.length p'.Program.rules));
  Trace.count tr "rewrite.qrp_disjuncts" (float_of_int disjuncts)

let count_engine tr ~edb_facts res =
  let s = Engine.stats res in
  let f = float_of_int in
  Trace.count tr "engine.derivations" (f s.derivations);
  Trace.count tr "engine.subsumed"
    (f (max 0 (s.derivations - (s.facts_added - edb_facts))));
  Trace.count tr "store.index_hits" (f s.index_hits);
  Trace.count tr "store.facts_skipped" (f s.facts_skipped);
  Trace.count tr "store.subsumptions_avoided" (f s.subsumptions_avoided)

let count_maintain tr (ms : Engine.maintain_stats) =
  Trace.count tr "engine.maintain_derivations" (float_of_int ms.m_derivations);
  Trace.count tr "engine.over_deleted" (float_of_int ms.m_over_deleted);
  Trace.count tr "engine.rederived" (float_of_int ms.m_rederived)

(* [rewrite] returns the rewritten program and the rewrite report *)
let eval tr ~op ~rewrite ~max_iterations ~max_derivations ~program ~edb =
  let p = Trace.span tr ~op "parser" (fun () -> Parser.program_of_string program) in
  let rules = Trace.span tr ~op "parser" (fun () -> Parser.facts_of_string edb) in
  Trace.count tr "parser.bytes" (float_of_int (String.length program + String.length edb));
  let facts = Trace.span tr ~op "load" (fun () -> List.filter_map fact_opt rules) in
  Trace.count tr "load.facts" (float_of_int (List.length rules));
  let p', report = Trace.solver_span tr ~op "rewrite" (fun () -> rewrite p) in
  if tr.Trace.on then count_rewrite tr p' report;
  let compiled = Trace.span tr ~op "compile" (fun () -> Engine.compile_plans p') in
  let res =
    Trace.solver_span tr ~op "engine" (fun () ->
        Engine.run ~jobs:1 ~max_iterations ~max_derivations ~compiled p' ~edb:facts)
  in
  if tr.Trace.on then count_engine tr ~edb_facts:(List.length facts) res;
  if not (Engine.stats res).reached_fixpoint then failwith "evaluation hit its budget";
  Engine.answers res p'

(* insert or retract one batch of EDB text on a live view *)
let write tr ~op view ~retract ~facts =
  let rules = Trace.span tr ~op "parser" (fun () -> Parser.facts_of_string facts) in
  let fs = Trace.span tr ~op "load" (fun () -> List.filter_map fact_opt rules) in
  let ms =
    Trace.solver_span tr ~op "engine" (fun () ->
        (if retract then Engine.retract else Engine.insert) view fs)
  in
  if tr.Trace.on then count_maintain tr ms;
  if not ms.m_complete then failwith "maintenance hit its budget";
  Engine.view_answers view
