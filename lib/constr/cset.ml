module Obs = Cql_obs.Obs

type t = Conj.t list (* satisfiable disjuncts, sorted, deduped *)

let ff : t = []
let tt : t = [ Conj.tt ]

let of_disjuncts ds =
  let sat = List.filter Conj.is_sat ds in
  List.sort_uniq Conj.compare sat

let of_conj c = of_disjuncts [ c ]
let disjuncts cs = cs
let is_ff cs = cs = []
let is_tt cs = List.exists Conj.is_tt cs
let num_disjuncts = List.length
let vars cs = List.fold_left (fun acc d -> Var.Set.union acc (Conj.vars d)) Var.Set.empty cs

let ctr_implies = Obs.counter "solver.cset_implies_checks"

(* prune disjuncts subsumed by another disjunct; with zero or one disjunct
   there is nothing to subsume, so skip the quadratic pass entirely *)
let prune cs =
  match cs with
  | [] | [ _ ] -> cs
  | _ ->
      let rec go acc = function
        | [] -> List.rev acc
        | d :: rest ->
            let subsumed_by d' = (not (Conj.equal d d')) && Conj.implies d d' in
            if List.exists subsumed_by rest || List.exists subsumed_by acc then go acc rest
            else go (d :: acc) rest
      in
      (* dedup first so identical disjuncts don't mutually subsume *)
      go [] (List.sort_uniq Conj.compare cs)

let or_ a b = prune (of_disjuncts (a @ b))

let and_ a b =
  prune (of_disjuncts (List.concat_map (fun da -> List.map (Conj.and_ da) b) a))

let and_conj c cs = and_ (of_conj c) cs

let negate_conj d =
  (* ¬(a1 & ... & an) = ¬a1 | ... | ¬an, each ¬ai a small disjunction *)
  of_disjuncts
    (List.concat_map (fun a -> List.map Conj.singleton (Atom.negate a)) (Conj.to_list d))

let conj_implies d (cs : t) =
  (* d ⊨ cs  iff  d ∧ ¬E1 ∧ ... ∧ ¬Ek is unsatisfiable *)
  Obs.incr ctr_implies;
  if List.exists (Conj.equal d) cs then true (* d is itself a disjunct *)
  else if not (Conj.is_sat d) then true
  else
    match cs with
    | [] -> false (* d is satisfiable, cs denotes the empty set *)
    | [ e ] -> Conj.implies d e
    | _ ->
        (* [escapes r es]: the satisfiable [r] has a point outside every
           disjunct of [es].  The residue's DNF is searched depth first, one
           negated atom of each disjunct per level (none of an atom [r]
           already has), and the first satisfiable leaf answers. *)
        let rec escapes r = function
          | [] -> true
          | e :: rest ->
              List.exists
                (fun a ->
                  (not (List.exists (Atom.equal a) (Conj.to_list r)))
                  && List.exists
                       (fun na ->
                         let r' = Conj.add na r in
                         Conj.is_sat r' && escapes r' rest)
                       (Atom.negate a))
                (Conj.to_list e)
        in
        not (escapes d cs)

(* disjuncts in canonical order: element-wise equal lists denote the same
   set, a sound fast path *)
let same_disjuncts (a : t) (b : t) = a == b || List.equal Conj.equal a b

let implies c1 c2 = same_disjuncts c1 c2 || List.for_all (fun d -> conj_implies d c2) c1
let equiv a b = same_disjuncts a b || (implies a b && implies b a)

let project ~keep cs = of_disjuncts (List.map (Conj.project ~keep) cs)
let rename f cs = of_disjuncts (List.map (Conj.rename f) cs)
let simplify cs = prune (of_disjuncts (List.map Conj.simplify cs))

let disjointify cs =
  (* fold disjuncts in, splitting each new one against everything kept so
     far: pieces of d disjoint from all previous disjuncts *)
  let split_against piece prev =
    (* piece ∧ ¬prev as a list of satisfiable conjunctions *)
    List.filter Conj.is_sat (List.map (Conj.and_ piece) (negate_conj prev))
  in
  List.fold_left
    (fun acc d ->
      let pieces =
        List.fold_left
          (fun pieces prev -> List.concat_map (fun p -> split_against p prev) pieces)
          [ d ] acc
      in
      acc @ List.map Conj.simplify pieces)
    [] cs
  |> of_disjuncts

let weaken_to_one cs =
  match cs with
  | [] -> Conj.ff
  | first :: rest ->
      (* candidate atoms: those of the first disjunct; keep the ones every
         other disjunct implies *)
      let shared =
        List.filter
          (fun a -> List.for_all (fun d -> Conj.implies_atom d a) rest)
          (Conj.to_list first)
      in
      Conj.simplify (Conj.of_list shared)

let compare = List.compare Conj.compare
let equal a b = compare a b = 0

let pp fmt cs =
  match cs with
  | [] -> Format.pp_print_string fmt "false"
  | ds ->
      Format.pp_print_list
        ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "  |  ")
        (fun fmt d -> Format.fprintf fmt "(%a)" Conj.pp d)
        fmt ds

let to_string cs = Format.asprintf "%a" pp cs
