open Cql_constr

type t = Term.t Var.Map.t

exception Type_error of string

let empty = Var.Map.empty
let is_empty = Var.Map.is_empty
let bindings = Var.Map.bindings
let of_bindings l = Var.Map.of_seq (List.to_seq l)
let find v s = Var.Map.find_opt v s

let rec resolve s (t : Term.t) =
  match t with
  | Term.C _ -> t
  | Term.V v -> (
      match Var.Map.find_opt v s with
      | None -> t
      | Some t' -> if Term.equal t t' then t else resolve s t')

(* The substitution primitives are written against an environment function
   [lookup : Var.t -> Term.t] returning the fully-resolved binding of a
   variable (the variable itself when unbound).  The map-based entry points
   below are thin wrappers over [resolve]; the compiled execution engine
   supplies a register-file lookup instead — both go through the exact same
   code, so the two execution modes cannot drift apart. *)

let apply_term_env ~lookup (t : Term.t) =
  match t with Term.C _ -> t | Term.V v -> lookup v

let apply_literal_env ~lookup (l : Literal.t) =
  { l with Literal.args = List.map (apply_term_env ~lookup) l.Literal.args }

let apply_linexpr_env ~lookup e =
  Var.Set.fold
    (fun v acc ->
      match (lookup v : Term.t) with
      | Term.V v' -> if Var.equal v v' then acc else Linexpr.subst [ (v, Linexpr.var v') ] acc
      | Term.C (Term.Num q) -> Linexpr.subst [ (v, Linexpr.const q) ] acc
      | Term.C (Term.Sym sym) ->
          raise
            (Type_error
               (Printf.sprintf "symbolic constant %s substituted into an arithmetic constraint"
                  sym)))
    (Linexpr.vars e) e

(* An atom some of whose variables resolve to symbolic constants cannot be
   substituted numerically.  The one well-typed shape is an equality between
   two positions ([k·x − k·y = 0], produced by rewrites from repeated
   variables); with both sides symbolic it is decided by symbol identity.
   Any other mix of a symbol with arithmetic is unsatisfiable: a symbol
   never equals, or compares with, a number. *)
let apply_atom_env ~lookup (a : Atom.t) : Atom.t list =
  let syms =
    Var.Set.fold
      (fun v acc ->
        match (lookup v : Term.t) with
        | Term.C (Term.Sym sym) -> (v, sym) :: acc
        | _ -> acc)
      (Linexpr.vars a.Atom.expr) []
  in
  match syms with
  | [] -> [ Atom.make (apply_linexpr_env ~lookup a.Atom.expr) a.Atom.op ]
  | [ (x, s1); (y, s2) ] when a.Atom.op = Atom.Eq ->
      let open Cql_num in
      let k = Linexpr.coeff x a.Atom.expr in
      let rest =
        Linexpr.sub a.Atom.expr
          (Linexpr.add (Linexpr.term k x) (Linexpr.term (Rat.neg k) y))
      in
      if
        Rat.equal (Linexpr.coeff y a.Atom.expr) (Rat.neg k)
        && Linexpr.is_const rest
        && Rat.is_zero (Linexpr.constant rest)
      then if s1 = s2 then [] else [ Atom.ff ]
      else [ Atom.ff ]
  | _ -> [ Atom.ff ]

let apply_conj_env ~lookup c =
  Conj.of_list (List.concat_map (apply_atom_env ~lookup) (Conj.to_list c))

let lookup_of s v = resolve s (Term.V v)

let apply_term s t = resolve s t
let apply_literal s l = apply_literal_env ~lookup:(lookup_of s) l
let apply_conj s c = apply_conj_env ~lookup:(lookup_of s) c

(* union-find style flat unification: bind the representative var *)
let unify_terms s t1 t2 =
  let t1 = resolve s t1 and t2 = resolve s t2 in
  match (t1, t2) with
  | Term.V v1, Term.V v2 -> if Var.equal v1 v2 then Some s else Some (Var.Map.add v1 t2 s)
  | Term.V v, (Term.C _ as c) | (Term.C _ as c), Term.V v -> Some (Var.Map.add v c s)
  | Term.C c1, Term.C c2 -> if Term.equal_const c1 c2 then Some s else None

let unify_under s (l1 : Literal.t) (l2 : Literal.t) =
  if l1.Literal.pred <> l2.Literal.pred then None
  else if List.length l1.Literal.args <> List.length l2.Literal.args then None
  else
    List.fold_left2
      (fun acc t1 t2 -> match acc with None -> None | Some s -> unify_terms s t1 t2)
      (Some s) l1.Literal.args l2.Literal.args

let unify l1 l2 = unify_under empty l1 l2

let renaming_of vars ~suffix =
  Var.Set.fold (fun v acc -> Var.Map.add v (Term.var (Var.fresh (Var.name v ^ suffix))) acc)
    vars empty

let pp fmt s =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       (fun fmt (v, t) -> Format.fprintf fmt "%a -> %a" Var.pp v Term.pp t))
    (bindings s)
