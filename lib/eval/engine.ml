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

(* A fact whose predicate the program uses must have the program's arity:
   the store's join indexes key on the program's argument positions, so a
   shorter fact would break them.  Checked over the whole batch before any
   store mutation, so a rejected batch leaves the store (or view) exactly as
   it was.  Facts of predicates the program never mentions are inert. *)
let check_arities (p : Program.t) facts =
  let arities = Hashtbl.create 16 in
  List.iter
    (fun (r : Rule.t) ->
      List.iter
        (fun (l : Literal.t) -> Hashtbl.replace arities l.Literal.pred (Literal.arity l))
        (r.Rule.head :: r.Rule.body))
    p.Program.rules;
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
   merge that follows. *)
let produce_round store codes =
  let produced = ref [] in
  List.iter
    (fun code ->
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
  check_arities p edb;
  if Obs.enabled () then begin
    Obs.add_field "rules" (List.length p.Program.rules);
    Obs.add_field "edb_facts" (List.length edb)
  end;
  let store = Store.create () in
  let b = budget ?max_iterations ?max_derivations () in
  let trace_rev = ref [] in
  let facts_added = ref 0 in
  let add_fact f =
    (* back-subsumption: drop stored facts the new fact subsumes; safe for
       semi-naive completeness because the new fact enters the delta *)
    Store.add store f;
    incr facts_added
  in
  (* merge one production in derivation order: subsumed arrivals only
     count.  The budget is spent first, so the derivation that exhausts it
     is neither stored nor traced: the trace shows no fact the result does
     not hold. *)
  let merge iteration (rule_label, fact, used) =
    spend b;
    let subsumed = Store.known_subsumes store fact in
    if traced then trace_rev := { iteration; rule_label; fact; used; subsumed } :: !trace_rev;
    if not subsumed then add_fact fact;
    not subsumed
  in
  (* join plans are planned and compiled once per rule, not per iteration;
     a precompiled artifact for this exact program skips both phases *)
  let codes = codes_for ?compiled p in
  let fixpoint =
    completes (fun () ->
        (* iteration 0: EDB facts (untraced) + fact rules *)
        List.iter (fun f -> if not (Store.known_subsumes store f) then add_fact f) edb;
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

module FactMap = Map.Make (Fact)

(* A materialized view keeps the fixpoint of one program alive across EDB
   changes.  Insertions are ordinary semi-naive rounds seeded from the new
   facts (the pending partition becomes the delta at the first boundary).
   Deletions are DRed: over-delete everything transitively supported by the
   retracted facts, then re-derive the over-deleted facts that still have
   support from the surviving part of the store.

   The twist relative to textbook DRed is the support graph: every rule
   firing {head; label; body facts} is recorded, so both phases of deletion
   are pure graph walks — no joins, no solver calls — and facts outside the
   deleted cone are never re-proved.  A fact's support count (EDB
   multiplicity + live firings) is read off the graph when asked for, and
   is what the update-oracle fuzz mode cross-checks against a from-scratch
   run.

   Constraint subsumption needs one extra piece of state: a fact can be
   dropped on arrival (or killed by back-subsumption) because a live fact
   covers it.  Such facts are remembered in [vw_covered]; when a retraction
   removes the last cover of a still-supported covered fact, it resurrects
   through a normal insertion round. *)

type firing = {
  fr_label : string;
  fr_head : Fact.t;
  fr_body : Fact.t list; (* in body-literal order; [] for fact rules *)
  mutable fr_dead : bool;
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
  vw_store : Store.t;
  vw_codes : Compile.code list;
  vw_domain : Cdomain.t;  (* constraint domain captured at materialize *)
  vw_max_iterations : int option;
  vw_max_derivations : int option;
  mutable vw_edb : Fact.t list; (* EDB multiset, newest first *)
  mutable vw_supports : firing list FactMap.t; (* head fact -> firings *)
  mutable vw_uses : firing list FactMap.t; (* body fact -> firings *)
  mutable vw_covered : unit FactMap.t; (* subsumed or back-subsumed facts *)
  mutable vw_complete : bool; (* no maintenance round was ever truncated *)
  mutable vw_closed : bool;
}

let ctr_inserted = Obs.counter "engine.maintain.inserted"
let ctr_retracted = Obs.counter "engine.maintain.retracted"
let ctr_over_deleted = Obs.counter "engine.maintain.over_deleted"
let ctr_rederived = Obs.counter "engine.maintain.rederived"

let check_open vw who = if vw.vw_closed then invalid_arg (who ^ ": view is closed")
let edb_mult vw f = List.length (List.filter (fun g -> Fact.compare g f = 0) vw.vw_edb)

let live_firings vw f =
  match FactMap.find_opt f vw.vw_supports with
  | None -> []
  | Some l -> List.filter (fun fr -> not fr.fr_dead) l

(* a fact's support: EDB multiplicity plus live firings producing it *)
let support vw f = edb_mult vw f + List.length (live_firings vw f)

let dedup_facts fs =
  List.fold_left (fun acc f -> if FactMap.mem f acc then acc else FactMap.add f () acc) FactMap.empty fs
  |> FactMap.bindings |> List.map fst

(* Record a firing unless a structurally identical live one exists (a
   resurrected fact re-enumerates joins that were already recorded while it
   was live the first time).  Returns whether the firing was new. *)
let add_firing vw label head body =
  let same fr =
    fr.fr_label = label
    && (not fr.fr_dead)
    && List.length fr.fr_body = List.length body
    && List.for_all2 (fun a b -> Fact.compare a b = 0) fr.fr_body body
  in
  let existing = match FactMap.find_opt head vw.vw_supports with None -> [] | Some l -> l in
  if List.exists same existing then false
  else begin
    let fr = { fr_label = label; fr_head = head; fr_body = body; fr_dead = false } in
    vw.vw_supports <- FactMap.add head (fr :: existing) vw.vw_supports;
    List.iter
      (fun b ->
        let l = match FactMap.find_opt b vw.vw_uses with None -> [] | Some l -> l in
        vw.vw_uses <- FactMap.add b (fr :: l) vw.vw_uses)
      (dedup_facts body);
    true
  end

(* drop every dead firing (and every entry of vanished facts) from the maps *)
let compact_graph vw gone =
  let prune l = List.filter (fun fr -> not fr.fr_dead) l in
  let sweep m =
    FactMap.filter_map
      (fun f l ->
        if FactMap.mem f gone then None
        else match prune l with [] -> None | l -> Some l)
      m
  in
  vw.vw_supports <- sweep vw.vw_supports;
  vw.vw_uses <- sweep vw.vw_uses

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

let cover vw f = vw.vw_covered <- FactMap.add f () vw.vw_covered

(* store a fact no live fact subsumes, remembering the facts it killed by
   back-subsumption as covered *)
let store_live vw f = List.iter (cover vw) (Store.add_reporting vw.vw_store f)

(* Where a fact arriving at the view goes: onto its live structural
   duplicate, into the covered set (remembered for possible resurrection)
   when a live fact subsumes it, else into the pending partition.  Returns
   the fact that carries its support and whether it was stored. *)
let arrive vw f =
  match Store.find_equal vw.vw_store f with
  | Some g -> (g, false)
  | None ->
      if Store.known_subsumes vw.vw_store f then begin
        cover vw f;
        (f, false)
      end
      else begin
        store_live vw f;
        (f, true)
      end

(* merge one production into the view: its firing is one more support of
   the fact it arrived at *)
let view_merge vw ms _iteration (label, f, used) =
  spend ms.s_budget;
  let head, stored = arrive vw f in
  ignore (add_firing vw label head used);
  stored

(* the shared rounds, until fixpoint: whatever sits in the pending partition
   becomes the delta at the first boundary *)
let view_rounds vw ms = rounds ms.s_budget vw.vw_store vw.vw_codes (view_merge vw ms)

(* one EDB insertion, before the rounds run; a duplicate or covered fact
   only gains the EDB occurrence as one more support *)
let insert_edb vw ms f =
  vw.vw_edb <- f :: vw.vw_edb;
  if snd (arrive vw f) then ms.s_inserted <- ms.s_inserted + 1
  else ms.s_noops <- ms.s_noops + 1

(* DRed on the support graph.  [gone_seeds] are facts that ceased to exist
   without ever being live (dropped covered facts); [live_seeds] are live
   facts whose EDB support vanished.  Every firing reachable from a seed is
   provisionally killed and every live head it supported provisionally
   deleted; the re-derivation pass then revives firings whose bodies
   survived and rescues their heads; what stays deleted leaves the store. *)
let dred vw ms ~live_seeds ~gone_seeds =
  let d = ref FactMap.empty in
  let killed = ref [] in
  let queue = Queue.create () in
  List.iter
    (fun f ->
      if not (FactMap.mem f !d) then begin
        d := FactMap.add f () !d;
        Queue.add f queue
      end)
    live_seeds;
  List.iter (fun f -> Queue.add f queue) gone_seeds;
  while not (Queue.is_empty queue) do
    let f = Queue.pop queue in
    List.iter
      (fun fr ->
        if not fr.fr_dead then begin
          fr.fr_dead <- true;
          killed := fr :: !killed;
          let h = fr.fr_head in
          if Store.mem_equal vw.vw_store h && not (FactMap.mem h !d) then begin
            d := FactMap.add h () !d;
            Queue.add h queue
          end
        end)
      (match FactMap.find_opt f vw.vw_uses with None -> [] | Some l -> l)
  done;
  let gone0 =
    List.fold_left (fun acc f -> FactMap.add f () acc) FactMap.empty gone_seeds
  in
  ms.s_over_deleted <- ms.s_over_deleted + FactMap.cardinal !d;
  (* re-derivation: a fact in D survives if it has EDB support or a live
     firing; a killed firing revives once none of its body facts is still
     provisionally deleted (or gone for good).  Iterate to fixpoint. *)
  let r = ref FactMap.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    FactMap.iter
      (fun f () ->
        if
          (not (FactMap.mem f !r))
          && (edb_mult vw f > 0 || live_firings vw f <> [])
        then begin
          r := FactMap.add f () !r;
          changed := true
        end)
      !d;
    List.iter
      (fun fr ->
        if fr.fr_dead then begin
          let body_ok b =
            (not (FactMap.mem b gone0))
            && ((not (FactMap.mem b !d)) || FactMap.mem b !r)
          in
          if List.for_all body_ok fr.fr_body then begin
            fr.fr_dead <- false;
            changed := true
          end
        end)
      !killed
  done;
  let deleted =
    FactMap.fold (fun f () acc -> if FactMap.mem f !r then acc else f :: acc) !d []
  in
  ms.s_rederived <- ms.s_rederived + FactMap.cardinal !r;
  ms.s_deleted <- ms.s_deleted + List.length deleted;
  List.iter (fun f -> ignore (Store.delete vw.vw_store f)) deleted;
  compact_graph vw (List.fold_left (fun acc f -> FactMap.add f () acc) gone0 deleted)

(* After deletions, covered facts whose cover died either resurrect (still
   supported) or vanish (cascading into another DRed pass). *)
let covered_sweep vw =
  let resurrect = ref [] and gone = ref [] in
  FactMap.iter
    (fun c () ->
      if not (Store.known_subsumes vw.vw_store c) then
        if support vw c > 0 then resurrect := c :: !resurrect else gone := c :: !gone)
    vw.vw_covered;
  List.iter
    (fun c -> vw.vw_covered <- FactMap.remove c vw.vw_covered)
    (!resurrect @ !gone);
  (!resurrect, !gone)

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

let finish_op vw ms ~op ~batch ~complete =
  if not complete then vw.vw_complete <- false;
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
  check_arities vw.vw_program facts;
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

let retract ?max_iterations ?max_derivations vw facts =
  check_open vw "Engine.retract";
  Cdomain.with_domain vw.vw_domain @@ fun () ->
  Obs.span "engine.maintain" @@ fun () ->
  Obs.add_field_str "op" "retract";
  let ms = mstate_create vw max_iterations max_derivations in
  let live_seeds = ref [] and gone_seeds = ref [] in
  List.iter
    (fun f ->
      let rec remove_one = function
        | [] -> None
        | g :: rest when Fact.compare g f = 0 -> Some rest
        | g :: rest -> Option.map (fun l -> g :: l) (remove_one rest)
      in
      match remove_one vw.vw_edb with
      | None -> ms.s_noops <- ms.s_noops + 1 (* not an EDB fact: nothing to do *)
      | Some edb' ->
          vw.vw_edb <- edb';
          ms.s_retracted <- ms.s_retracted + 1;
          if Store.mem_equal vw.vw_store f then begin
            if edb_mult vw f = 0 then
              (* last EDB occurrence: over-delete even when firings remain —
                 the remaining support may be a derivation cycle *)
              live_seeds := f :: !live_seeds
          end
          else if
            (* covered (or never-stored) fact: no store change, but if this
               was its last support its joins must cascade *)
            FactMap.mem f vw.vw_covered && support vw f = 0
          then begin
            vw.vw_covered <- FactMap.remove f vw.vw_covered;
            gone_seeds := f :: !gone_seeds
          end)
    facts;
  let complete =
    completes (fun () ->
        let live = ref (dedup_facts !live_seeds) and gone = ref !gone_seeds in
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
  check_arities p edb;
  let vw =
    {
      vw_program = p;
      vw_store = Store.create ();
      vw_codes = codes_for ?compiled p;
      vw_domain = Cdomain.current ();
      vw_max_iterations = max_iterations;
      vw_max_derivations = max_derivations;
      vw_edb = [];
      vw_supports = FactMap.empty;
      vw_uses = FactMap.empty;
      vw_covered = FactMap.empty;
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
  List.sort compare
    (List.map (fun (p, fs) -> (p, List.sort Fact.compare fs)) (Store.all_facts vw.vw_store))

let view_answers vw =
  match vw.vw_program.Program.query with
  | None -> []
  | Some q -> List.sort Fact.compare (view_facts_of vw q)

let view_counts vw =
  List.filter_map
    (fun (p, fs) -> if fs = [] then None else Some (p, List.map (fun f -> (f, support vw f)) fs))
    (view_all_facts vw)

let view_total vw = Store.total vw.vw_store
