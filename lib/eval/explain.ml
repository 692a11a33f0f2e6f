module FactMap = Map.Make (Fact)

type t = { fact : Fact.t; rule : string; children : t list }

(* each fact's first non-subsumed derivation in the trace: its rule label
   and the body facts it used *)
let derivations res =
  List.fold_left
    (fun m (e : Engine.trace_entry) ->
      if e.Engine.subsumed || FactMap.mem e.Engine.fact m then m
      else FactMap.add e.Engine.fact (e.Engine.rule_label, e.Engine.used) m)
    FactMap.empty (Engine.trace res)

(* a guard against pathological depth *)
let max_depth = 64

let tree res root =
  let derived = derivations res in
  (* only derived and EDB facts enter the store, and EDB loading is not
     traced: a fact with no derivation is a database fact *)
  let rec build depth f =
    if depth >= max_depth then { fact = f; rule = "..."; children = [] }
    else
      match FactMap.find_opt f derived with
      | None -> { fact = f; rule = "edb"; children = [] }
      | Some (rule, used) -> { fact = f; rule; children = List.map (build (depth + 1)) used }
  in
  if
    FactMap.mem root derived
    || List.exists (fun g -> Fact.compare g root = 0) (Engine.facts_of res (Fact.pred root))
  then Some (build 0 root)
  else None

let rec depth t =
  1 + List.fold_left (fun acc c -> max acc (depth c)) 0 t.children

let rec size t = 1 + List.fold_left (fun acc c -> acc + size c) 0 t.children

let rec facts t = t.fact :: List.concat_map facts t.children

let pp fmt t =
  let rec go indent t =
    Format.fprintf fmt "%s%a   [%s]@." (String.make indent ' ') Fact.pp t.fact t.rule;
    List.iter (go (indent + 2)) t.children
  in
  go 0 t

let to_string t = Format.asprintf "%a" pp t
