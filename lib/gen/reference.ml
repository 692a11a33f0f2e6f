open Cql_constr
open Cql_datalog
module Fact = Cql_eval.Fact
module Compile = Cql_eval.Compile
module StringMap = Map.Make (String)

type stats = { iterations : int; derivations : int; facts_added : int; reached_fixpoint : bool }

type result = { facts : Fact.t list StringMap.t; stats : stats }

(* which iteration tags a body literal reads: everything before the
   previous iteration, the previous iteration's facts, or both *)
type window = Old | Delta | Full

exception Budget_exhausted

let eval ~seminaive ?max_iterations ?max_derivations (p : Program.t) ~edb =
  (* per predicate: (fact, iteration that stored it), newest first *)
  let store = ref StringMap.empty in
  let current = ref 0 in
  let stored pred = Option.value (StringMap.find_opt pred !store) ~default:[] in
  let known f = List.exists (fun (g, _) -> Fact.subsumes g f) (stored (Fact.pred f)) in
  let facts_added = ref 0 and derivations = ref 0 in
  let deriv_left = ref (Option.value max_derivations ~default:max_int) in
  let add f =
    (* back-subsumption: the newcomer replaces every stored fact it covers *)
    let kept = List.filter (fun (g, _) -> not (Fact.subsumes f g)) (stored (Fact.pred f)) in
    store := StringMap.add (Fact.pred f) ((f, !current) :: kept) !store;
    incr facts_added
  in
  (* merge one derivation; true when it added a fact *)
  let merge f =
    let subsumed = known f in
    incr derivations;
    decr deriv_left;
    if !deriv_left <= 0 then raise Budget_exhausted;
    if not subsumed then add f;
    not subsumed
  in
  let candidates window (lit : Literal.t) =
    let lo, hi =
      match window with
      | Old -> (0, !current - 2)
      | Delta -> (!current - 1, !current - 1)
      | Full -> (0, !current - 1)
    in
    List.filter_map
      (fun (f, it) ->
        if it >= lo && it <= hi && Fact.matches_literal lit f then Some f else None)
      (stored lit.Literal.pred)
  in
  (* program-order join with incremental unification: a failed unification
     prunes the combination before the cross-product expands *)
  let rec join (r : Rule.t) body theta cstr emit =
    match body with
    | [] ->
        Option.iter emit
          (Compile.derive_head_env ~lookup:(fun v -> Subst.resolve theta (Term.V v)) r cstr)
    | (lit, window) :: rest ->
        List.iter
          (fun f ->
            let flit, fcstr = Compile.fact_literal f in
            match Subst.unify_under theta lit flit with
            | None -> ()
            | Some theta' -> join r rest theta' (Conj.and_ cstr fcstr) emit)
          (candidates window lit)
  in
  (* semi-naive: one pass per pivot position reading the delta, earlier
     positions the old facts and later ones everything; naive: all full *)
  let passes (r : Rule.t) =
    let window ~pivot i =
      if pivot < 0 then Full else if i < pivot then Old else if i = pivot then Delta else Full
    in
    let pass pivot = List.mapi (fun i lit -> (lit, window ~pivot i)) r.Rule.body in
    if seminaive then List.init (List.length r.Rule.body) pass else [ pass (-1) ]
  in
  let fact_rules, body_rules = List.partition Rule.is_fact p.Program.rules in
  let iterations = ref 0 and fixpoint = ref false in
  (try
     List.iter (fun f -> if not (known f) then add f) edb;
     List.iter (fun r -> join r [] Subst.empty Conj.tt (fun f -> ignore (merge f))) fact_rules;
     while not !fixpoint do
       let iter = !iterations + 1 in
       (match max_iterations with Some cap when iter > cap -> raise Exit | _ -> ());
       iterations := iter;
       current := iter;
       (* every derivation of the round is produced before any is merged *)
       let produced = ref [] in
       List.iter
         (fun r ->
           List.iter
             (fun body -> join r body Subst.empty Conj.tt (fun f -> produced := f :: !produced))
             (passes r))
         body_rules;
       let added =
         List.fold_left (fun added f -> merge f || added) false (List.rev !produced)
       in
       if not added then fixpoint := true
     done
   with Exit | Budget_exhausted -> ());
  {
    facts = StringMap.map (fun l -> List.rev_map fst l) !store;
    stats =
      {
        iterations = !iterations;
        derivations = !derivations;
        facts_added = !facts_added;
        reached_fixpoint = !fixpoint;
      };
  }

let run ?max_iterations ?max_derivations p ~edb =
  eval ~seminaive:true ?max_iterations ?max_derivations p ~edb

let run_naive ?max_iterations ?max_derivations p ~edb =
  eval ~seminaive:false ?max_iterations ?max_derivations p ~edb

let stats r = r.stats
let facts_of r pred = Option.value (StringMap.find_opt pred r.facts) ~default:[]
let all_facts r = StringMap.bindings r.facts

let answers r (p : Program.t) =
  match p.Program.query with None -> [] | Some q -> facts_of r q
