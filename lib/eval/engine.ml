open Cql_constr
open Cql_datalog
module Store = Cql_store.Store
module Planner = Cql_store.Planner
module Obs = Cql_obs.Obs

type trace_entry = {
  iteration : int;
  rule_label : string;
  fact : Fact.t;
  used : Fact.t list;
  subsumed : bool;
}

type stats = {
  iterations : int;
  derivations : int;
  facts_added : int;
  reached_fixpoint : bool;
  index_probes : int;
  index_hits : int;
  facts_skipped : int;
  subsumptions_avoided : int;
}

type result = {
  store : Store.t; (* the run's final store *)
  stats : stats;
  traced : bool;
  trace_rev : trace_entry list;
}

let stats r = r.stats

let trace r =
  if not r.traced then invalid_arg "Engine.trace: the run was not traced";
  List.rev r.trace_rev

let facts_of r pred = Store.facts r.store pred
let all_facts r = List.sort (fun (p, _) (q, _) -> String.compare p q) (Store.all_facts r.store)
let total_facts r = Store.total r.store
let total_idb_facts r ~edb = total_facts r - List.length edb

let answers r (p : Program.t) =
  match p.Program.query with None -> [] | Some q -> List.sort Fact.compare (facts_of r q)

let all_ground r =
  List.for_all (fun (_, l) -> List.for_all Fact.is_ground l) (Store.all_facts r.store)

(* ----- EDB admission ----- *)

exception Arity_mismatch of string

(* the arity of every predicate the program's rules use *)
let arities_of (p : Program.t) =
  let arities = Hashtbl.create 16 in
  List.iter
    (fun (r : Rule.t) ->
      List.iter
        (fun (l : Literal.t) -> Hashtbl.replace arities l.Literal.pred (Literal.arity l))
        (r.Rule.head :: r.Rule.body))
    p.Program.rules;
  arities

(* A fact whose predicate the program uses must have the program's arity:
   the store's join indexes key on the program's argument positions, so a
   shorter fact would break them.  Checked over the whole batch before any
   store mutation, so a rejected batch leaves the store (or view) exactly as
   it was.  Facts of predicates the program never mentions are inert. *)
let check_arities arities facts =
  List.iter
    (fun f ->
      match Hashtbl.find_opt arities (Fact.pred f) with
      | Some n when n <> Fact.arity f ->
          raise
            (Arity_mismatch
               (Printf.sprintf "fact %s has arity %d, but the program uses %s/%d"
                  (Fact.to_string f) (Fact.arity f) (Fact.pred f) n))
      | _ -> ())
    facts

(* ----- rule application ----- *)

(* iteration 0: each bodyless rule fires once, from the empty substitution *)
let fire_fact_rules (p : Program.t) merge =
  List.iter
    (fun (r : Rule.t) ->
      if Rule.is_fact r then
        Option.iter
          (fun f -> ignore (merge 0 (r.Rule.label, f, [])))
          (Compile.derive_head_env ~lookup:Term.var r Conj.tt))
    p.Program.rules

(* The budget of one run or one maintenance operation: the last iteration
   started and the derivations merged so far, against their caps. *)
type budget = {
  max_iterations : int option;
  mutable iterations : int;
  mutable derivations : int;
  mutable deriv_left : int;
}

exception Budget_exhausted

let budget ?max_iterations ?max_derivations () =
  {
    max_iterations;
    iterations = 0;
    derivations = 0;
    deriv_left = Option.value max_derivations ~default:max_int;
  }

(* count one merged derivation; the one that exhausts the budget is counted
   but its fact is not stored *)
let spend b =
  b.derivations <- b.derivations + 1;
  b.deriv_left <- b.deriv_left - 1;
  if b.deriv_left <= 0 then raise Budget_exhausted

(* whether [f] ran to completion: [Exit] and [Budget_exhausted] mean a
   budget cut it short *)
let completes f =
  try
    f ();
    true
  with Exit | Budget_exhausted -> false

(* One match/join phase over every compiled plan, returning the
   productions in enumeration order (rule order, then plan order) for the
   merge that follows.  A plan whose pivot's delta is empty derives nothing
   and is skipped. *)
let produce_round store codes =
  let produced = ref [] in
  List.iter
    (fun code ->
      if not (Compile.idle code store) then
        let label = (Compile.rule code).Rule.label in
        Compile.exec code store ~emit:(fun f used -> produced := (label, f, used) :: !produced))
    codes;
  List.rev !produced

(* A precompiled plan set for one program: built once (e.g. by the plan
   cache) and reused across runs so warm requests skip both planning and
   compilation.  [cp_for] is compared physically — the artifact only applies
   to the exact program value it was built from.  The compiled (rule, pivot)
   programs come in rule order then plan order. *)
type compiled = { cp_for : Program.t; cp_codes : Compile.code list }

let ctr_cache_hits = Obs.counter "engine.compile.cache_hits"

let compile_plans (p : Program.t) : compiled =
  let body_rules = List.filter (fun r -> not (Rule.is_fact r)) p.Program.rules in
  let codes r = List.map (Compile.compile r) (Planner.plans r) in
  { cp_for = p; cp_codes = List.concat_map codes body_rules }

(* the programs for [p]: the precompiled artifact when it was built from
   this exact program value, else a fresh compilation *)
let codes_for ?compiled (p : Program.t) =
  match compiled with
  | Some cp when cp.cp_for == p ->
      Obs.incr ctr_cache_hits;
      cp.cp_codes
  | _ -> (compile_plans p).cp_codes

(* Semi-naive rounds until one adds nothing, shared by runs and views: each
   round moves the pending partition into the delta, runs every compiled
   plan and merges the productions in derivation order.  [merge iteration
   production] spends the budget and returns whether it stored the fact.
   Raises [Exit] at the iteration cap and [Budget_exhausted] when the
   derivations run out. *)
let rounds b store codes merge =
  let continue_ = ref true in
  while !continue_ do
    let iter = b.iterations + 1 in
    (match b.max_iterations with Some cap when iter > cap -> raise Exit | _ -> ());
    b.iterations <- iter;
    continue_ :=
      Obs.span "engine.iteration" @@ fun () ->
      Obs.add_field "iteration" iter;
      Store.advance store;
      let produced = produce_round store codes in
      (* [merge] may raise Budget_exhausted mid-round; the span still
         records (with the fields attached so far) and re-raises *)
      let added =
        List.fold_left (fun n prod -> if merge iter prod then n + 1 else n) 0 produced
      in
      if Obs.enabled () then begin
        let n = List.length produced in
        Obs.add_field "produced" n;
        Obs.add_field "delta_added" added;
        Obs.add_field "subsumption_hits" (n - added)
      end;
      added > 0
  done

let run ?jobs:_ ?max_iterations ?max_derivations ?(traced = false) ?compiled (p : Program.t)
    ~(edb : Fact.t list) =
  Obs.span "engine.run" @@ fun () ->
  check_arities (arities_of p) edb;
  if Obs.enabled () then begin
    Obs.add_field "rules" (List.length p.Program.rules);
    Obs.add_field "edb_facts" (List.length edb)
  end;
  let store = Store.create () in
  let b = budget ?max_iterations ?max_derivations () in
  let trace_rev = ref [] in
  let facts_added = ref 0 in
  (* a fact no live fact subsumes is stored, after back-subsumption drops
     the stored facts it subsumes; safe for semi-naive completeness because
     the new fact enters the delta *)
  let add_fact f =
    match Store.arrive store f with
    | Store.Stored _ ->
        incr facts_added;
        true
    | Store.Equal | Store.Subsumed -> false
  in
  (* merge one production in derivation order: subsumed arrivals only
     count.  The budget is spent first, so the derivation that exhausts it
     is neither stored nor traced: the trace shows no fact the result does
     not hold. *)
  let merge iteration (rule_label, fact, used) =
    spend b;
    let stored = add_fact fact in
    if traced then
      trace_rev := { iteration; rule_label; fact; used; subsumed = not stored } :: !trace_rev;
    stored
  in
  (* join plans are planned and compiled once per rule, not per iteration;
     a precompiled artifact for this exact program skips both phases *)
  let codes = codes_for ?compiled p in
  let fixpoint =
    completes (fun () ->
        (* iteration 0: EDB facts (untraced) + fact rules *)
        List.iter (fun f -> ignore (add_fact f)) edb;
        fire_fact_rules p merge;
        rounds b store codes merge)
  in
  if Obs.enabled () then begin
    Obs.add_field "iterations" b.iterations;
    Obs.add_field "derivations" b.derivations;
    Obs.add_field "facts_added" !facts_added;
    Obs.add_field_str "fixpoint" (string_of_bool fixpoint)
  end;
  let s = Store.stats store in
  {
    store;
    traced;
    trace_rev = !trace_rev;
    stats =
      {
        iterations = b.iterations;
        derivations = b.derivations;
        facts_added = !facts_added;
        reached_fixpoint = fixpoint;
        index_probes = s.Store.indexed_probes;
        index_hits = s.Store.index_hits;
        facts_skipped = s.Store.facts_skipped;
        subsumptions_avoided = s.Store.subsumption_avoided;
      };
  }

(* ----- incremental view maintenance ----- *)

(* A materialized view keeps the fixpoint of one program alive across EDB
   changes.  Insertions are ordinary semi-naive rounds seeded from the new
   facts (the pending partition becomes the delta at the first boundary).
   Deletions are DRed: over-delete everything transitively supported by the
   retracted facts, then re-derive the over-deleted facts that still have
   support from the surviving part of the store.

   The twist relative to textbook DRed is the support graph: every rule
   firing {head; label; body facts} is recorded, so both phases of deletion
   are pure graph walks — no joins, no solver calls — and facts outside the
   deleted cone are never re-proved.  The graph is one mutable node per
   stored or covered fact, reached through a hash table on the fact:
   firings point at their head and body nodes, and each node lists the
   firings that produce it and the firings it feeds, so a write touches
   only the nodes of the facts it reaches.  A fact's support is its node's
   EDB multiplicity plus its live firings, and is what the update-oracle
   fuzz mode cross-checks against a from-scratch run.

   Constraint subsumption needs one extra piece of state: a fact can be
   dropped on arrival (or killed by back-subsumption) because a live fact
   covers it.  Such a fact's node stays, flagged covered; when a retraction
   removes the last cover of a still-supported covered fact, it resurrects
   through a normal insertion round. *)

module FactTbl = Hashtbl.Make (Fact)

type node = {
  n_fact : Fact.t;
  mutable n_edb : int; (* EDB multiplicity *)
  mutable n_firings : firing list; (* the firings that produce it *)
  mutable n_uses : firing list; (* the firings it feeds, each once *)
  mutable n_covered : bool; (* on [vw_covered]: not stored, a live fact subsumes it *)
  mutable n_mark : int; (* DRed: [unmarked], [deleted], [rescued] or [gone] *)
  mutable n_swept : int; (* the last DRed pass that swept its lists *)
}

and firing = {
  fr_label : string;
  fr_head : node;
  fr_body : node array; (* in body-literal order; empty for fact rules *)
  mutable fr_dead : bool; (* only ever set during a DRed pass *)
  mutable fr_missing : int; (* DRed: distinct body nodes still deleted or gone *)
}

type maintain_stats = {
  m_op : string;
  m_batch : int;
  m_inserted : int; (* EDB facts newly stored (not dups/covered) *)
  m_retracted : int; (* EDB occurrences removed *)
  m_noops : int; (* retractions of absent facts / duplicate inserts *)
  m_derivations : int; (* rule firings merged during the rounds *)
  m_over_deleted : int; (* facts provisionally deleted by DRed *)
  m_rederived : int; (* over-deleted facts rescued by re-derivation *)
  m_resurrected : int; (* covered facts revived by a dying cover *)
  m_deleted : int; (* facts physically removed *)
  m_iterations : int;
  m_complete : bool; (* rounds reached fixpoint within the budget *)
}

type view = {
  vw_program : Program.t;
  vw_arities : (string, int) Hashtbl.t; (* the program's, for [insert]'s check *)
  vw_store : Store.t;
  vw_codes : Compile.code list;
  vw_domain : Cdomain.t;  (* constraint domain captured at materialize *)
  vw_max_iterations : int option;
  vw_max_derivations : int option;
  mutable vw_edb : Fact.t list; (* EDB multiset, newest first: [view_edb]'s order *)
  vw_nodes : node FactTbl.t; (* stored and covered facts (and vanished ones
                                 until their DRed pass) -> their nodes *)
  mutable vw_covered : node list; (* the nodes flagged covered *)
  mutable vw_answers : Fact.t list; (* the query's stored facts at the last flush, sorted *)
  mutable vw_changes : (Fact.t * bool) list;
      (* query facts stored ([true]) or removed since, newest first *)
  mutable vw_passes : int; (* DRed passes so far: [n_swept]'s clock *)
  mutable vw_complete : bool; (* no maintenance round was ever truncated *)
  mutable vw_closed : bool;
}

let ctr_inserted = Obs.counter "engine.maintain.inserted"
let ctr_retracted = Obs.counter "engine.maintain.retracted"
let ctr_over_deleted = Obs.counter "engine.maintain.over_deleted"
let ctr_rederived = Obs.counter "engine.maintain.rederived"

let check_open vw who = if vw.vw_closed then invalid_arg (who ^ ": view is closed")

(* DRed marks *)
let unmarked = 0
let deleted = 1
let rescued = 2
let gone = 3

let node_of vw f = FactTbl.find vw.vw_nodes f

let node_for vw f =
  match FactTbl.find vw.vw_nodes f with
  | n -> n
  | exception Not_found ->
      let n =
        {
          n_fact = f;
          n_edb = 0;
          n_firings = [];
          n_uses = [];
          n_covered = false;
          n_mark = unmarked;
          n_swept = 0;
        }
      in
      FactTbl.add vw.vw_nodes f n;
      n

let rec count_live n = function
  | [] -> n
  | fr :: rest -> count_live (if fr.fr_dead then n else n + 1) rest

(* a fact's support: EDB multiplicity plus live firings producing it *)
let support n = n.n_edb + count_live 0 n.n_firings

let cover vw n =
  if not n.n_covered then begin
    n.n_covered <- true;
    vw.vw_covered <- n :: vw.vw_covered
  end

let rec cover_facts vw = function
  | [] -> ()
  | f :: rest ->
      cover vw (node_of vw f);
      cover_facts vw rest

let is_answer vw f =
  match vw.vw_program.Program.query with Some q -> String.equal q (Fact.pred f) | None -> false

(* log a query fact entering ([true]) or leaving the store, for [view_answers] *)
let log_change vw f stored = vw.vw_changes <- (f, stored) :: vw.vw_changes

(* the bookkeeping of a fact just stored: it is live, and the facts it
   killed by back-subsumption become covered *)
let stored_live vw n killed =
  n.n_covered <- false;
  if is_answer vw n.n_fact then begin
    log_change vw n.n_fact true;
    List.iter (fun k -> log_change vw k false) killed
  end;
  cover_facts vw killed

(* store a fact no live fact subsumes *)
let store_live vw n = stored_live vw n (Store.add_reporting vw.vw_store n.n_fact)

(* Where a fact arriving at the view goes, in one call to the store: onto
   the node of its live equal (the node table keys facts by {!Fact.equal}),
   into the covered set when a live fact subsumes it, else into the pending
   partition.  Returns the node that carries its support and whether the
   fact was stored. *)
let arrive vw f =
  match Store.arrive vw.vw_store f with
  | Store.Equal -> (node_of vw f, false)
  | Store.Subsumed ->
      let n = node_for vw f in
      cover vw n;
      (n, false)
  | Store.Stored killed ->
      let n = node_for vw f in
      stored_live vw n killed;
      (n, true)

(* ----- recording firings ----- *)

let rec same_body (a : node array) (b : node array) i =
  i = Array.length a || (a.(i) == b.(i) && same_body a b (i + 1))

let rec has_firing label body = function
  | [] -> false
  | fr :: rest ->
      (String.equal fr.fr_label label
      && Array.length fr.fr_body = Array.length body
      && same_body fr.fr_body body 0)
      || has_firing label body rest

(* the body node at [i] also sits at an index in [j, i) *)
let rec repeated (body : node array) i j =
  j < i && (body.(j) == body.(i) || repeated body i (j + 1))

let rec link_uses fr body i =
  if i < Array.length body then begin
    let b = body.(i) in
    if not (repeated body i 0) then b.n_uses <- fr :: b.n_uses;
    link_uses fr body (i + 1)
  end

let rec fill_body vw (body : node array) i = function
  | [] -> ()
  | f :: rest ->
      body.(i) <- node_of vw f;
      fill_body vw body (i + 1) rest

let body_nodes vw = function
  | [] -> [||]
  | f :: rest as used ->
      let body = Array.make (List.length used) (node_of vw f) in
      fill_body vw body 1 rest;
      body

(* Record a firing unless an identical one exists (outside a DRed pass
   every recorded firing is live): a resurrected fact re-enumerates joins
   that were recorded while it was live the first time.  A body that lists
   one fact twice enters its uses once. *)
let add_firing vw label head used =
  let body = body_nodes vw used in
  if not (has_firing label body head.n_firings) then begin
    let fr =
      { fr_label = label; fr_head = head; fr_body = body; fr_dead = false; fr_missing = 0 }
    in
    head.n_firings <- fr :: head.n_firings;
    link_uses fr body 0
  end

(* mutable accumulator threaded through one maintenance operation *)
type mstate = {
  s_budget : budget;
  mutable s_inserted : int;
  mutable s_retracted : int;
  mutable s_noops : int;
  mutable s_over_deleted : int;
  mutable s_rederived : int;
  mutable s_resurrected : int;
  mutable s_deleted : int;
}

(* merge one production into the view: its firing is one more support of
   the fact it arrived at *)
let view_merge vw ms _iteration (label, f, used) =
  spend ms.s_budget;
  let head, stored = arrive vw f in
  add_firing vw label head used;
  stored

(* the shared rounds, until fixpoint: whatever sits in the pending partition
   becomes the delta at the first boundary *)
let view_rounds vw ms = rounds ms.s_budget vw.vw_store vw.vw_codes (view_merge vw ms)

(* one EDB insertion, before the rounds run; a duplicate or covered fact
   only gains the EDB occurrence as one more support *)
let insert_edb vw ms f =
  vw.vw_edb <- f :: vw.vw_edb;
  let n, stored = arrive vw f in
  n.n_edb <- n.n_edb + 1;
  if stored then ms.s_inserted <- ms.s_inserted + 1 else ms.s_noops <- ms.s_noops + 1

(* ----- DRed ----- *)

(* the cone of one DRed pass *)
type cone = {
  mutable c_deleted : node list; (* every node marked [deleted], rescued or not *)
  mutable c_gone : node list;
  mutable c_killed : firing list;
  mutable c_todo : node list; (* the walk's worklist *)
  mutable c_rescued : int;
}

(* a node joins the cone as provisionally deleted, and the walk *)
let over_delete cone n =
  n.n_mark <- deleted;
  cone.c_deleted <- n :: cone.c_deleted;
  cone.c_todo <- n :: cone.c_todo

(* over-deletion from one node: kill every live firing it feeds; a stored
   head not yet deleted joins the cone *)
let rec kill_uses cone = function
  | [] -> ()
  | fr :: rest ->
      if not fr.fr_dead then begin
        fr.fr_dead <- true;
        cone.c_killed <- fr :: cone.c_killed;
        let h = fr.fr_head in
        if (not h.n_covered) && h.n_mark = unmarked then over_delete cone h
      end;
      kill_uses cone rest

(* run [visit] on the uses of each node of the worklist until it empties *)
let rec walk cone visit =
  match cone.c_todo with
  | [] -> ()
  | n :: rest ->
      cone.c_todo <- rest;
      visit cone n.n_uses;
      walk cone visit

(* the distinct body nodes of a killed firing still deleted or gone *)
let rec count_missing (body : node array) i n =
  if i = Array.length body then n
  else
    let b = body.(i) in
    let out = (b.n_mark = deleted || b.n_mark = gone) && not (repeated body i 0) in
    count_missing body (i + 1) (if out then n + 1 else n)

let rescue cone n =
  n.n_mark <- rescued;
  cone.c_rescued <- cone.c_rescued + 1;
  cone.c_todo <- n :: cone.c_todo

(* a rescued node is one fewer missing body node for every killed firing
   it feeds; a firing missing none revives and rescues its head *)
let rec revive_uses cone = function
  | [] -> ()
  | fr :: rest ->
      if fr.fr_dead then begin
        fr.fr_missing <- fr.fr_missing - 1;
        if fr.fr_missing = 0 then begin
          fr.fr_dead <- false;
          if fr.fr_head.n_mark = deleted then rescue cone fr.fr_head
        end
      end;
      revive_uses cone rest

(* [l] without its dead firings, sharing the tail after the last one *)
let rec drop_dead = function
  | [] -> []
  | fr :: rest as l ->
      let rest' = drop_dead rest in
      if fr.fr_dead then rest' else if rest' == rest then l else fr :: rest'

(* filter the dead firings off a surviving node, once per pass *)
let sweep_node pass n =
  if n.n_swept <> pass && n.n_mark <> deleted && n.n_mark <> gone then begin
    n.n_swept <- pass;
    n.n_firings <- drop_dead n.n_firings;
    n.n_uses <- drop_dead n.n_uses
  end

(* DRed on the support graph.  [gone_seeds] are nodes of facts that ceased
   to exist without being live (covered facts left with no support);
   [live_seeds] are stored facts whose EDB support vanished.  Every firing
   reachable from a seed is provisionally killed and every stored head it
   supported provisionally deleted.  Re-derivation is a worklist: a killed
   firing counts its body nodes still deleted or gone, a rescued node
   decrements the count of every firing it feeds, and a firing whose count
   reaches zero revives and rescues its head.  A node is rescued from the
   start when it has EDB support or a firing that was never killed.  What
   stays deleted leaves the store and the graph; the firings that stay dead
   are filtered off the nodes they touch, and nothing else is visited. *)
let dred vw ms ~live_seeds ~gone_seeds =
  let cone = { c_deleted = []; c_gone = []; c_killed = []; c_todo = []; c_rescued = 0 } in
  List.iter (fun n -> if n.n_mark = unmarked then over_delete cone n) live_seeds;
  (* a vanished fact re-derived since it vanished has support again *)
  List.iter
    (fun n ->
      if n.n_mark = unmarked && support n = 0 then begin
        n.n_mark <- gone;
        cone.c_gone <- n :: cone.c_gone;
        cone.c_todo <- n :: cone.c_todo
      end)
    gone_seeds;
  walk cone kill_uses;
  List.iter (fun fr -> fr.fr_missing <- count_missing fr.fr_body 0 0) cone.c_killed;
  List.iter
    (fun n ->
      if n.n_mark = deleted && (n.n_edb > 0 || count_live 0 n.n_firings > 0) then rescue cone n)
    cone.c_deleted;
  walk cone revive_uses;
  vw.vw_passes <- vw.vw_passes + 1;
  let pass = vw.vw_passes in
  List.iter
    (fun fr ->
      if fr.fr_dead then begin
        sweep_node pass fr.fr_head;
        Array.iter (sweep_node pass) fr.fr_body
      end)
    cone.c_killed;
  let removed = ref 0 in
  List.iter
    (fun n ->
      if n.n_mark = deleted then begin
        if Store.delete vw.vw_store n.n_fact && is_answer vw n.n_fact then
          log_change vw n.n_fact false;
        FactTbl.remove vw.vw_nodes n.n_fact;
        incr removed
      end
      else n.n_mark <- unmarked)
    cone.c_deleted;
  List.iter (fun n -> FactTbl.remove vw.vw_nodes n.n_fact) cone.c_gone;
  ms.s_over_deleted <- ms.s_over_deleted + List.length cone.c_deleted;
  ms.s_rederived <- ms.s_rederived + cone.c_rescued;
  ms.s_deleted <- ms.s_deleted + !removed

(* After deletions, covered facts whose cover died either resurrect (still
   supported) or vanish (cascading into another DRed pass).  Resurrection
   stores them in descending {!Fact.compare} order, so which of two
   resurrected facts back-subsumes the other does not depend on how the
   covered set was built. *)
let covered_sweep vw =
  let resurrect = ref [] and vanished = ref [] and still = ref [] in
  List.iter
    (fun n ->
      if Store.known_subsumes vw.vw_store n.n_fact then still := n :: !still
      else begin
        n.n_covered <- false;
        if support n > 0 then resurrect := n :: !resurrect else vanished := n :: !vanished
      end)
    vw.vw_covered;
  vw.vw_covered <- !still;
  (List.sort (fun a b -> Fact.compare b.n_fact a.n_fact) !resurrect, !vanished)

(* a fresh accumulator whose budgets are the caller's, else the view's *)
let mstate_create vw max_iterations max_derivations =
  let or_view o d = match o with Some _ -> o | None -> d in
  {
    s_budget =
      budget
        ?max_iterations:(or_view max_iterations vw.vw_max_iterations)
        ?max_derivations:(or_view max_derivations vw.vw_max_derivations)
        ();
    s_inserted = 0;
    s_retracted = 0;
    s_noops = 0;
    s_over_deleted = 0;
    s_rederived = 0;
    s_resurrected = 0;
    s_deleted = 0;
  }

(* the changes of one fact come first in [changes]: drop them *)
let rec skip_fact f = function
  | (g, _) :: rest when Fact.compare g f = 0 -> skip_fact f rest
  | changes -> changes

(* [answers] after [changes], both sorted by fact and a fact's newest change
   first among its own: that change says whether the fact is stored now.
   The tail after the last change is shared. *)
let rec apply_changes answers changes =
  match (answers, changes) with
  | _, [] -> answers
  | g :: rest, (f, _) :: _ when Fact.compare g f < 0 -> g :: apply_changes rest changes
  | _, (f, stored) :: _ ->
      let answers =
        match answers with g :: rest when Fact.compare g f = 0 -> rest | _ -> answers
      in
      let changes = skip_fact f changes in
      if stored then f :: apply_changes answers changes else apply_changes answers changes

(* The sorted answers are kept across writes: each operation merges in the
   query facts it stored, sorted among themselves, and drops those it
   removed (DRed deletions and back-subsumption kills alike).  A read
   flushes too, in case an operation ended by an exception. *)
let flush_answers vw =
  if vw.vw_changes <> [] then begin
    let changes = List.stable_sort (fun (a, _) (b, _) -> Fact.compare a b) vw.vw_changes in
    vw.vw_changes <- [];
    vw.vw_answers <- apply_changes vw.vw_answers changes
  end

let finish_op vw ms ~op ~batch ~complete =
  if not complete then vw.vw_complete <- false;
  flush_answers vw;
  let b = ms.s_budget in
  Obs.add ctr_inserted ms.s_inserted;
  Obs.add ctr_retracted ms.s_retracted;
  Obs.add ctr_over_deleted ms.s_over_deleted;
  Obs.add ctr_rederived ms.s_rederived;
  if Obs.enabled () then begin
    Obs.add_field "batch" batch;
    Obs.add_field "inserted" ms.s_inserted;
    Obs.add_field "retracted" ms.s_retracted;
    Obs.add_field "over_deleted" ms.s_over_deleted;
    Obs.add_field "rederived" ms.s_rederived;
    Obs.add_field "resurrected" ms.s_resurrected;
    Obs.add_field "derivations" b.derivations;
    Obs.add_field "iterations" b.iterations;
    Obs.add_field_str "complete" (string_of_bool complete)
  end;
  {
    m_op = op;
    m_batch = batch;
    m_inserted = ms.s_inserted;
    m_retracted = ms.s_retracted;
    m_noops = ms.s_noops;
    m_derivations = b.derivations;
    m_over_deleted = ms.s_over_deleted;
    m_rederived = ms.s_rederived;
    m_resurrected = ms.s_resurrected;
    m_deleted = ms.s_deleted;
    m_iterations = b.iterations;
    m_complete = complete;
  }

let insert ?max_iterations ?max_derivations vw facts =
  check_open vw "Engine.insert";
  check_arities vw.vw_arities facts;
  (* maintenance must re-derive under the same constraint domain the view
     was materialized with, whatever the ambient domain of the caller *)
  Cdomain.with_domain vw.vw_domain @@ fun () ->
  Obs.span "engine.maintain" @@ fun () ->
  Obs.add_field_str "op" "insert";
  let ms = mstate_create vw max_iterations max_derivations in
  let complete =
    completes (fun () ->
        List.iter (insert_edb vw ms) facts;
        view_rounds vw ms)
  in
  finish_op vw ms ~op:"insert" ~batch:(List.length facts) ~complete

(* [l] without its first fact equal to [f], which it holds *)
let rec remove_first f acc = function
  | [] -> List.rev acc
  | g :: rest ->
      if Fact.equal g f then List.rev_append acc rest else remove_first f (g :: acc) rest

let retract ?max_iterations ?max_derivations vw facts =
  check_open vw "Engine.retract";
  Cdomain.with_domain vw.vw_domain @@ fun () ->
  Obs.span "engine.maintain" @@ fun () ->
  Obs.add_field_str "op" "retract";
  let ms = mstate_create vw max_iterations max_derivations in
  let live_seeds = ref [] and gone_seeds = ref [] in
  List.iter
    (fun f ->
      match FactTbl.find vw.vw_nodes f with
      | n when n.n_edb > 0 ->
          vw.vw_edb <- remove_first f [] vw.vw_edb;
          n.n_edb <- n.n_edb - 1;
          ms.s_retracted <- ms.s_retracted + 1;
          if not n.n_covered then begin
            if n.n_edb = 0 then
              (* last EDB occurrence: over-delete even when firings remain —
                 the remaining support may be a derivation cycle *)
              live_seeds := n :: !live_seeds
          end
          else if support n = 0 then begin
            (* covered fact: no store change, but its last support is gone
               and its joins must cascade *)
            n.n_covered <- false;
            vw.vw_covered <- List.filter (fun m -> m != n) vw.vw_covered;
            gone_seeds := n :: !gone_seeds
          end
      | _ | (exception Not_found) -> ms.s_noops <- ms.s_noops + 1 (* not an EDB fact *))
    facts;
  let complete =
    completes (fun () ->
        let live = ref !live_seeds and gone = ref !gone_seeds in
        while !live <> [] || !gone <> [] do
          dred vw ms ~live_seeds:!live ~gone_seeds:!gone;
          let resurrect, vanished = covered_sweep vw in
          ms.s_resurrected <- ms.s_resurrected + List.length resurrect;
          if resurrect <> [] then begin
            List.iter (store_live vw) resurrect;
            view_rounds vw ms
          end;
          live := [];
          gone := vanished
        done)
  in
  finish_op vw ms ~op:"retract" ~batch:(List.length facts) ~complete

let materialize ?jobs:_ ?max_iterations ?max_derivations ?compiled (p : Program.t) ~edb =
  Obs.span "engine.maintain" @@ fun () ->
  Obs.add_field_str "op" "materialize";
  let arities = arities_of p in
  check_arities arities edb;
  let vw =
    {
      vw_program = p;
      vw_arities = arities;
      vw_store = Store.create ();
      vw_codes = codes_for ?compiled p;
      vw_domain = Cdomain.current ();
      vw_max_iterations = max_iterations;
      vw_max_derivations = max_derivations;
      vw_edb = [];
      vw_nodes = FactTbl.create 64;
      vw_covered = [];
      vw_answers = [];
      vw_changes = [];
      vw_passes = 0;
      vw_complete = true;
      vw_closed = false;
    }
  in
  let ms = mstate_create vw None None in
  let complete =
    completes (fun () ->
        List.iter (insert_edb vw ms) edb;
        (* bodyless rules fire once, as firings with no body: never deleted *)
        fire_fact_rules p (view_merge vw ms);
        view_rounds vw ms)
  in
  let stats = finish_op vw ms ~op:"materialize" ~batch:(List.length edb) ~complete in
  (vw, stats)

let close_view vw = vw.vw_closed <- true

(* ----- view accessors ----- *)

let view_program vw = vw.vw_program
let view_complete vw = vw.vw_complete
let view_edb vw = List.rev vw.vw_edb
let view_domain vw = vw.vw_domain

let view_facts_of vw pred = Store.facts vw.vw_store pred

let view_all_facts vw =
  List.sort
    (fun (p, _) (q, _) -> String.compare p q)
    (List.map (fun (p, fs) -> (p, List.sort Fact.compare fs)) (Store.all_facts vw.vw_store))

let view_answers vw =
  flush_answers vw;
  vw.vw_answers

let view_counts vw =
  List.filter_map
    (fun (p, fs) ->
      if fs = [] then None else Some (p, List.map (fun f -> (f, support (node_of vw f))) fs))
    (view_all_facts vw)

let view_total vw = Store.total vw.vw_store
