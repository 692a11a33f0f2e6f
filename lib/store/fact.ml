open Cql_num
open Cql_constr
open Cql_datalog

type pos = Psym of string | Pvar

type t = {
  pred : string;
  args : pos array;
  cstr : Conj.t;
  pinned : Rat.t option array; (* cached per-position ground values *)
}

exception Unsat

let numeric_vars args =
  let s = ref Var.Set.empty in
  Array.iteri (fun i p -> match p with Pvar -> s := Var.Set.add (Var.arg (i + 1)) !s | Psym _ -> ()) args;
  !s

(* extract the value a simplified conjunction pins a variable to, if any *)
let pinned_value cstr v =
  let rec find = function
    | [] -> None
    | (a : Atom.t) :: rest ->
        if a.Atom.op = Atom.Eq && Atom.mem v a then begin
          let k = Linexpr.coeff v a.Atom.expr in
          let r = Linexpr.sub a.Atom.expr (Linexpr.term k v) in
          if Linexpr.is_const r then Some (Rat.neg (Rat.div (Linexpr.constant r) k))
          else find rest
        end
        else find rest
  in
  find (Conj.to_list cstr)

let compute_pinned args cstr =
  Array.mapi
    (fun i p ->
      match p with
      | Psym _ -> None
      | Pvar -> (
          let v = Var.arg (i + 1) in
          match pinned_value cstr v with
          | Some q -> Some q
          | None ->
              (* an equality may pin it only after projecting the others out *)
              pinned_value (Conj.project ~keep:(Var.Set.singleton v) cstr) v))
    args

let make pred args cstr =
  let keep = numeric_vars args in
  let c = Conj.simplify (Conj.project ~keep cstr) in
  if not (Conj.is_sat c) then raise Unsat;
  { pred; args; cstr = c; pinned = compute_pinned args c }

(* Ground fast path: every position is a symbol or a known numeric value.
   [make] over the pin conjunction would return its canonicalization
   unchanged — [project] keeps every variable (none falls outside [keep]),
   [simplify] drops nothing (each pin binds a distinct [$i], so no atom is
   implied by the others) and the conjunction is satisfiable (over ℤ only
   when every value is an integer, which callers check) — so
   the canonical representation is built directly, skipping the solver
   memo lookups and the per-position pin extraction of [compute_pinned]. *)
let of_consts pred (consts : Term.const array) =
  let n = Array.length consts in
  let args = Array.make n Pvar in
  let pinned = Array.make n None in
  let atoms = ref [] in
  for i = 0 to n - 1 do
    match consts.(i) with
    | Term.Sym s -> args.(i) <- Psym s
    | Term.Num q ->
        pinned.(i) <- Some q;
        atoms := Atom.pin (Var.arg (i + 1)) q :: !atoms
  done;
  { pred; args; cstr = Conj.of_list !atoms; pinned }

(* Over ℤ a pin to a fractional value is unsatisfiable: such a fact is left
   to [make], which raises [Unsat].  Every other ground fact is [of_consts]'s. *)
let ground pred consts =
  let f = of_consts pred (Array.of_list consts) in
  let fractional = function Some q -> not (Rat.is_integer q) | None -> false in
  if Cdomain.is_z () && Array.exists fractional f.pinned then make pred f.args f.cstr else f

let of_fact_rule (r : Rule.t) =
  if r.Rule.body <> [] then invalid_arg "Fact.of_fact_rule: rule has body literals";
  let head = r.Rule.head in
  let consts =
    List.filter_map (function Term.C c -> Some c | Term.V _ -> None) head.Literal.args
  in
  if Conj.is_tt r.Rule.cstr && List.compare_lengths consts head.Literal.args = 0 then
    ground head.Literal.pred consts
  else
    let n = Literal.arity head in
    let args = Array.make n Pvar in
    (* bind each head term to $i; repeated variables become $i = $j *)
    let atoms = ref (Conj.to_list r.Rule.cstr) in
    let seen : (Var.t * int) list ref = ref [] in
    List.iteri
      (fun i t ->
        let ai = Var.arg (i + 1) in
        match t with
        | Term.C (Term.Sym s) -> args.(i) <- Psym s
        | Term.C (Term.Num q) -> atoms := Atom.pin ai q :: !atoms
        | Term.V v -> (
            match List.assoc_opt v !seen with
            | Some j ->
                atoms := Atom.eq (Linexpr.var ai) (Linexpr.var (Var.arg j)) :: !atoms
            | None ->
                seen := (v, i + 1) :: !seen;
                atoms := Atom.eq (Linexpr.var ai) (Linexpr.var v) :: !atoms))
      head.Literal.args;
    make head.Literal.pred args (Conj.of_list !atoms)

let pred f = f.pred
let arity f = Array.length f.args
let cstr f = f.cstr

let ground_value f i = f.pinned.(i - 1)

let is_ground f =
  let ok = ref true in
  Array.iteri
    (fun i p -> match p with Psym _ -> () | Pvar -> if f.pinned.(i) = None then ok := false)
    f.args;
  !ok

let same_pattern a b =
  a.pred = b.pred
  && Array.length a.args = Array.length b.args
  && Array.for_all2 (fun x y ->
         match (x, y) with
         | Psym s1, Psym s2 -> s1 = s2
         | Pvar, Pvar -> true
         | Psym _, Pvar | Pvar, Psym _ -> false)
       a.args b.args

(* cheap pre-filter: can this fact possibly unify with the literal?
   Constant literal arguments must match the fact's symbolic pattern and
   pinned values.  A [Pvar] position not pinned to a number can still cover
   a symbolic constant — either as a universal wildcard ([$i] absent from
   the constraint) or through a position-equality over symbol-bound
   positions, which unification decides exactly — so only a numeric pin
   rejects a symbol here.  (Repeated variables are left to real
   unification.) *)
let matches_literal (l : Literal.t) f =
  Array.length f.args = Literal.arity l
  && begin
       let ok i t =
         match (t, f.args.(i)) with
         | Term.C (Term.Sym s), Psym s' -> s = s'
         | Term.C (Term.Sym _), Pvar -> f.pinned.(i) = None
         | Term.C (Term.Num _), Psym _ -> false
         | Term.C (Term.Num q), Pvar -> (
             match f.pinned.(i) with Some v -> Rat.equal v q | None -> true)
         | Term.V _, _ -> true
       in
       List.for_all Fun.id (List.mapi ok l.Literal.args)
     end

let all_pinned f =
  Array.for_all2
    (fun p v -> match p with Psym _ -> true | Pvar -> v <> None)
    f.args f.pinned

let subsumes general specific =
  same_pattern general specific
  && (general.cstr == specific.cstr (* interned: identical constraints *)
     ||
     if all_pinned specific then
       (* evaluate the general constraint at the specific point: no solver *)
       let env v =
         match Var.arg_index v with
         | Some i when i >= 1 && i <= Array.length specific.pinned -> specific.pinned.(i - 1)
         | _ -> None
       in
       match Conj.eval_at env general.cstr with
       | Some b -> b
       | None -> Conj.implies specific.cstr general.cstr
     else Conj.implies specific.cstr general.cstr)

(* position by position, [Pvar] before [Psym], then the shorter pattern
   first: the order of the patterns as [string option] lists *)
let compare_args a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i = la || i = lb then Int.compare la lb
    else
      match (a.(i), b.(i)) with
      | Pvar, Pvar -> go (i + 1)
      | Pvar, Psym _ -> -1
      | Psym _, Pvar -> 1
      | Psym s1, Psym s2 ->
          let c = String.compare s1 s2 in
          if c <> 0 then c else go (i + 1)
  in
  go 0

let compare a b =
  let c = String.compare a.pred b.pred in
  if c <> 0 then c
  else
    let c = compare_args a.args b.args in
    if c <> 0 then c else Conj.compare a.cstr b.cstr

let equal a b = compare a b = 0

let pp fmt f =
  let n = Array.length f.args in
  let pinned = Array.make n None in
  for i = 1 to n do
    pinned.(i - 1) <- ground_value f i
  done;
  (* residual constraints: those not expressed by pinned positions *)
  let residual =
    List.filter
      (fun (a : Atom.t) ->
        not
          (Var.Set.for_all
             (fun v ->
               match Var.arg_index v with
               | Some i when i <= n -> pinned.(i - 1) <> None
               | _ -> false)
             (Atom.vars a)))
      (Conj.to_list f.cstr)
  in
  let pp_arg fmt i =
    match f.args.(i) with
    | Psym s -> Format.pp_print_string fmt s
    | Pvar -> (
        match pinned.(i) with
        | Some q -> Rat.pp fmt q
        | None -> Var.pp fmt (Var.arg (i + 1)))
  in
  Format.fprintf fmt "%s(" f.pred;
  for i = 0 to n - 1 do
    if i > 0 then Format.pp_print_string fmt ", ";
    pp_arg fmt i
  done;
  if residual <> [] then
    Format.fprintf fmt "; %a"
      (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ") Atom.pp)
      residual;
  Format.pp_print_string fmt ")"

let to_string f = Format.asprintf "%a" pp f
