(* paper-eval: one-shot evaluations of the paper's two running examples
   (flights with pred,qrp; D.1 with the optimal pred,qrp,mg order), plus
   insert/retract writes on flights views, all in this process. *)

open Cql_datalog
module Engine = Cql_eval.Engine

(* sizes, recorded in workloads.json *)
let flights_inputs = 64
let cities = 10
let degree = 3
let leg_time = (40, 160)
let leg_cost = (30, 120)
let d1_inputs = 32
let d1_chains = 12
let d1_chain_length = 8
let n_views = 4

let max_iterations = 200
let max_derivations = 2_000_000

type input = { program : string; edb : string; optimal : bool; expected : string list }

type view = { live : Engine.view; writes : Inputs.writes }

type t = {
  inputs : input array;
  views : view array;
  order : Random.State.t;
  mutable op : int;
  cold : Measure.sample list;
}

(* Each evaluation starts from empty solver caches, as a one-shot `cqlopt
   eval` process does.  Rewriting and fact loading key the caches by fresh
   terms, so a cache kept across evaluations only grows: operations slow
   down as it fills, until it is dropped at its size limit. *)
let eval tr ~op (i : input) () =
  Cql_constr.Memo.clear_all ();
  let rewrite = if i.optimal then Inproc.optimal else Inproc.pred_qrp in
  let answers =
    Inproc.eval tr ~op ~rewrite ~max_iterations ~max_derivations ~program:i.program ~edb:i.edb
  in
  fun () -> Trace.span tr ~op "check" (fun () -> Refcheck.same i.expected (Refcheck.of_facts answers))

let write tr ~op v () =
  let retract, facts, expected = Inputs.next_write v.writes in
  let answers = Inproc.write tr ~op v.live ~retract ~facts in
  fun () -> Trace.span tr ~op "check" (fun () -> Refcheck.same expected (Refcheck.of_facts answers))

let step t tr =
  let op = t.op in
  t.op <- op + 1;
  let cls, f =
    if op mod 6 = 5 then (Measure.Write, write tr ~op t.views.(Random.State.int t.order (Array.length t.views)))
    else (Measure.Main, eval tr ~op t.inputs.(Random.State.int t.order (Array.length t.inputs)))
  in
  Trace.span tr ~op "op" (fun () -> Measure.timed cls f)

let networks st n =
  List.init n (fun _ -> Inputs.network st ~cities ~degree ~spare:1 ~time:leg_time ~cost:leg_cost)

let setup ~seed =
  let st = Inputs.rng seed 1 in
  let program = Inputs.flights_program ~tmax:"240" ~cmax:"150" in
  let nets = networks st flights_inputs in
  let view_nets = networks st n_views in
  let flights =
    List.map
      (fun (n : Inputs.network) ->
        { program; edb = Inputs.legs_text n.legs; optimal = false;
          expected = Refcheck.flights ~tmax:240. ~cmax:150. n.legs })
      nets
  in
  let d1 =
    List.init d1_inputs (fun _ ->
        let e = Inputs.d1_edb st ~chains:d1_chains ~length:d1_chain_length in
        { program = Inputs.d1_program; edb = Inputs.d1_text e; optimal = true;
          expected = Refcheck.d1 ~xmax:4 e.b1 e.b2 })
  in
  let inputs = Array.of_list (flights @ d1) in
  (* the first pass over the distinct inputs runs cold: it is charged to
     set-up, and its latencies are the cold-latency samples *)
  let off = Trace.create ~on:false ~dom:0 in
  let cold = Array.to_list (Array.mapi (fun op i -> Measure.timed Measure.Cold (eval off ~op i)) inputs) in
  let views =
    List.map
      (fun (n : Inputs.network) ->
        let p, _ = Inproc.pred_qrp (Parser.program_of_string program) in
        let edb = List.map Cql_eval.Fact.of_fact_rule (Parser.facts_of_string (Inputs.legs_text n.legs)) in
        let live, _ = Engine.materialize ~jobs:1 ~max_iterations ~max_derivations p ~edb in
        { live; writes = Inputs.writes n })
      view_nets
  in
  { inputs; views = Array.of_list views; order = Inputs.rng seed 2; op = Array.length inputs; cold }

let cold_samples t = t.cold

let run t ~seconds ~trace =
  let tr = Trace.create ~on:trace ~dom:0 in
  (Measure.closed_loop ~kernel_every:0.25 ~seconds (fun () -> step t tr), [ tr ])

let peak_rss_mb _ = Measure.peak_rss_mb None
let speed_scaled = true
let teardown t = Array.iter (fun v -> Engine.close_view v.live) t.views
