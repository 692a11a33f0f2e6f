(* The production engine against the seed reference evaluator: what the two
   must agree on at a fixpoint or an iteration cap.  They derive in
   different orders (planner order vs program order), so fact sets are
   compared as sorted printed facts. *)

open Cql_eval
module Reference = Cql_gen.Reference

let fact_sets all =
  List.sort compare
    (List.filter_map
       (fun (pred, fs) ->
         if fs = [] then None else Some (pred, List.sort compare (List.map Fact.to_string fs)))
       all)

let check name (e : Engine.result) (r : Reference.result) =
  let se = Engine.stats e and sr = Reference.stats r in
  Alcotest.(check (list (pair string (list string))))
    (name ^ ": fact sets")
    (fact_sets (Reference.all_facts r))
    (fact_sets (Engine.all_facts e));
  Alcotest.(check int) (name ^ ": iterations") sr.Reference.iterations se.Engine.iterations;
  Alcotest.(check int) (name ^ ": derivations") sr.Reference.derivations se.Engine.derivations;
  Alcotest.(check int) (name ^ ": facts_added") sr.Reference.facts_added se.Engine.facts_added;
  Alcotest.(check bool)
    (name ^ ": fixpoint flag")
    sr.Reference.reached_fixpoint se.Engine.reached_fixpoint
