open Cql_constr
open Cql_datalog

type step = { lit : Literal.t; orig : int; part : Store.partition }

type plan = step list

(* which store partition a body literal reads, given the semi-naive pivot
   (the literal forced to use the previous iteration's delta); literals
   before the pivot in the *original* body read old, later ones read full —
   this depends on the original position, never on the evaluation order, so
   reordering keeps the union over pivots exactly covering each combination
   once *)
let part_of ~pivot i : Store.partition =
  if pivot < 0 then Full else if i < pivot then Old else if i = pivot then Delta else Full

(* bound-ness score under the variables bound so far: (bound args, free
   args).  More bound arguments mean a more selective index probe; fewer
   free arguments mean a smaller result to carry forward. *)
let score bound (l : Literal.t) =
  List.fold_left
    (fun (b, f) t ->
      match t with
      | Term.C _ -> (b + 1, f)
      | Term.V v -> if Var.Set.mem v bound then (b + 1, f) else (b, f + 1))
    (0, 0) l.Literal.args

(* greedy most-bound-first ordering: repeatedly pick the literal with the
   most bound arguments (constants or variables bound by already-placed
   literals), tie-breaking on fewer free arguments then original position.
   With a pivot, the delta literal goes first — the delta is the smallest
   partition and seeds the bindings for everything else. *)
let order ~pivot (body : Literal.t list) : plan =
  let items = List.mapi (fun i l -> (i, l)) body in
  let first, rest =
    if pivot >= 0 then
      ( List.filter (fun (i, _) -> i = pivot) items,
        List.filter (fun (i, _) -> i <> pivot) items )
    else ([], items)
  in
  let bound = ref Var.Set.empty in
  let place (i, l) =
    bound := Var.Set.union !bound (Literal.vars l);
    { lit = l; orig = i; part = part_of ~pivot i }
  in
  let placed = List.map place first in
  let rec pick acc = function
    | [] -> List.rev acc
    | remaining ->
        let best =
          List.fold_left
            (fun best (i, l) ->
              let b, f = score !bound l in
              match best with
              | Some (_, _, bb, bf) when (bb, -bf) >= (b, -f) -> best
              | _ -> Some (i, l, b, f))
            None remaining
        in
        let bi, bl, _, _ = match best with Some (i, l, b, f) -> (i, l, b, f) | None -> assert false in
        pick (place (bi, bl) :: acc) (List.filter (fun (i, _) -> i <> bi) remaining)
  in
  placed @ pick [] rest

(* All evaluation plans for one rule, computed once: one per semi-naive
   pivot. *)
let plans (r : Rule.t) : plan list =
  List.init (List.length r.Rule.body) (fun pivot -> order ~pivot r.Rule.body)

(* per-step binding metadata, for compiling a plan: which variables earlier
   steps have bound when a step starts, and which the step binds first *)
let step_bindings (p : plan) : (Var.Set.t * Var.Set.t) list =
  let rec go bound = function
    | [] -> []
    | s :: rest ->
        let vs = Literal.vars s.lit in
        (bound, Var.Set.diff vs bound) :: go (Var.Set.union bound vs) rest
  in
  go Var.Set.empty p
