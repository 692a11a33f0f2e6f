(* rewrite-corpus: programs from the differential-fuzzing generator
   (Cql_gen.Generate, default config, decidable / linear / int modes in
   turn), each parsed, rewritten with the optimal pred,qrp,mg order and
   evaluated on its small EDB.  The answers must equal those of the
   unrewritten program (Theorem 4.8), computed once in set-up. *)

open Cql_datalog
module Engine = Cql_eval.Engine
module Cdomain = Cql_constr.Cdomain
module Generate = Cql_gen.Generate

(* sizes, recorded in workloads.json *)
let cases = 1000
let n_views = 24

(* the reference run's budgets, as in the fuzzing harness; a case whose
   original program does not reach its fixpoint within them is not drawn *)
let ref_iterations = 25
let ref_derivations = 20_000

(* the rewritten program's budgets, as the daemon's defaults *)
let max_iterations = 200
let max_derivations = 200_000

type case = {
  domain : Cdomain.t;
  program : string;
  edb : string list;  (** one fact per line *)
  expected : string list;
}

type view = {
  vcase : case;
  live : Engine.view;
  fact : string;  (** the EDB fact the writes retract and insert back *)
  without : string list;  (** reference answers with [fact] retracted *)
  mutable retracted : bool;
}

type t = {
  corpus : case array;
  views : view array;
  order : Random.State.t;
  mutable op : int;
  cold : Measure.sample list;
}

let reference domain program edb =
  Cdomain.with_domain domain @@ fun () ->
  let p = Parser.program_of_string program in
  let facts = List.filter_map Inproc.fact_opt (Parser.facts_of_string (String.concat "" edb)) in
  let res = Engine.run ~jobs:1 ~max_iterations:ref_iterations ~max_derivations:ref_derivations p ~edb:facts in
  if (Engine.stats res).reached_fixpoint then Some (Refcheck.of_facts (Engine.answers res p)) else None

(* each op starts from empty solver caches, as a one-shot `cqlopt` run
   does, so the decision procedures run instead of their memo tables *)
let eval tr ~op c () =
  Cql_constr.Memo.clear_all ();
  let answers =
    Cdomain.with_domain c.domain @@ fun () ->
    Inproc.eval tr ~op ~rewrite:Inproc.optimal ~max_iterations ~max_derivations ~program:c.program
      ~edb:(String.concat "" c.edb)
  in
  fun () -> Trace.span tr ~op "check" (fun () -> Refcheck.same c.expected (Refcheck.of_facts answers))

let write tr ~op v () =
  let retract = not v.retracted in
  let answers =
    Cdomain.with_domain v.vcase.domain @@ fun () -> Inproc.write tr ~op v.live ~retract ~facts:v.fact
  in
  v.retracted <- retract;
  let expected = if retract then v.without else v.vcase.expected in
  fun () -> Trace.span tr ~op "check" (fun () -> Refcheck.same expected (Refcheck.of_facts answers))

let step t tr =
  let op = t.op in
  t.op <- op + 1;
  let cls, f =
    if op mod 6 = 5 then (Measure.Write, write tr ~op t.views.(Random.State.int t.order (Array.length t.views)))
    else (Measure.Main, eval tr ~op t.corpus.(Random.State.int t.order (Array.length t.corpus)))
  in
  Trace.span tr ~op "op" (fun () -> Measure.timed cls f)

let modes = [| Generate.Decidable; Generate.Linear; Generate.Int |]

let rec draw st i =
  let mode = modes.(i mod Array.length modes) in
  let domain = if mode = Generate.Int then Cdomain.Z else Cdomain.Q in
  match Inputs.corpus_case st mode with
  | exception Generate.Exhausted _ -> draw st i
  | program, edb -> (
      match reference domain program edb with
      | Some expected -> { domain; program; edb; expected }
      | None -> draw st i)

(* A view of a case's rewritten program, with one EDB fact chosen to be
   retracted and inserted back.  Materialization is a checked operation of
   set-up: a failure is counted, and the view is left out. *)
let materialize st (c : case) =
  let k = Random.State.int st (List.length c.edb) in
  let fact = List.nth c.edb k in
  let without = reference c.domain c.program (List.filteri (fun i _ -> i <> k) c.edb) in
  let built = ref None in
  let sample =
    Measure.timed Measure.Write (fun () ->
        Cdomain.with_domain c.domain @@ fun () ->
        let p, _ = Inproc.optimal (Parser.program_of_string c.program) in
        let edb = List.filter_map Inproc.fact_opt (Parser.facts_of_string (String.concat "" c.edb)) in
        let live, ms = Engine.materialize ~jobs:1 ~max_iterations ~max_derivations p ~edb in
        built := Option.map (fun without -> { vcase = c; live; fact; without; retracted = false }) without;
        fun () ->
          ms.m_complete && without <> None
          && Refcheck.same c.expected (Refcheck.of_facts (Engine.view_answers live)))
  in
  ((if sample.ok then !built else None), sample)

let setup ~seed =
  let st = Inputs.rng seed 1 in
  let corpus = Array.init cases (draw st) in
  let off = Trace.create ~on:false ~dom:0 in
  let cold = Array.to_list (Array.mapi (fun op c -> Measure.timed Measure.Cold (eval off ~op c)) corpus) in
  let views, built =
    Array.to_list corpus
    |> List.filter (fun c -> c.edb <> [])
    |> List.filteri (fun i _ -> i < n_views)
    |> List.map (materialize st)
    |> List.split
  in
  { corpus; views = Array.of_list (List.filter_map Fun.id views); order = Inputs.rng seed 2; op = cases;
    cold = cold @ built }

let cold_samples t = t.cold

let run t ~seconds ~trace =
  let tr = Trace.create ~on:trace ~dom:0 in
  (Measure.closed_loop ~kernel_every:0.25 ~seconds (fun () -> step t tr), [ tr ])

let peak_rss_mb _ = Measure.peak_rss_mb None
let speed_scaled = true
let teardown t = Array.iter (fun v -> Engine.close_view v.live) t.views
