open Cql_constr
open Cql_datalog

(* positions of the literal holding symbolic constants cannot be converted;
   project their $i away before substituting *)
let sym_positions (l : Literal.t) =
  List.concat
    (List.mapi
       (fun i t -> match t with Term.C (Term.Sym _) -> [ Var.arg (i + 1) ] | _ -> [])
       l.Literal.args)

let ptol_conj (l : Literal.t) (c : Conj.t) : Conj.t =
  let keep = Var.Set.diff (Conj.vars c) (Var.Set.of_list (sym_positions l)) in
  let c = Conj.project ~keep c in
  (* substitute $i := t_i for every argument at once (rule variables are
     never canonical $j, so no t_i mentions one); repeated variables merge,
     which is exactly substitution semantics *)
  Conj.subst
    (List.concat
       (List.mapi
          (fun i t ->
            match Term.to_linexpr t with Some e -> [ (Var.arg (i + 1), e) ] | None -> [])
          l.Literal.args))
    c

let ptol l cs = Cset.of_disjuncts (List.map (ptol_conj l) (Cset.disjuncts cs))

let ltop_conj (l : Literal.t) (c : Conj.t) : Conj.t =
  let eqs =
    List.concat
      (List.mapi
         (fun i t ->
           let ai = Var.arg (i + 1) in
           match t with
           | Term.V v -> [ Atom.eq (Linexpr.var ai) (Linexpr.var v) ]
           | Term.C (Term.Num q) -> [ Atom.eq (Linexpr.var ai) (Linexpr.const q) ]
           | Term.C (Term.Sym _) -> [])
         l.Literal.args)
  in
  let keep =
    List.mapi (fun i _ -> Var.arg (i + 1)) l.Literal.args |> Var.Set.of_list
  in
  Conj.simplify (Conj.project ~keep (Conj.and_ c (Conj.of_list eqs)))

let ltop l cs = Cset.of_disjuncts (List.map (ltop_conj l) (Cset.disjuncts cs))
