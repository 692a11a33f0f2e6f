open Cql_constr
open Cql_datalog

let definition ~primed ~orig ~arity cset =
  List.mapi
    (fun i disjunct ->
      let head = Literal.fresh_args primed arity in
      let body = [ { head with Literal.pred = orig } ] in
      let cstr = Ptol_ltop.ptol_conj head disjunct in
      Rule.make ~label:(Printf.sprintf "def_%s_%d" primed (i + 1)) head body cstr)
    (Cset.disjuncts cset)

(* remove the first occurrence (physical equality is enough: callers pass a
   literal taken from the body) *)
let remove_first lit body =
  let rec go acc = function
    | [] -> List.rev acc
    | l :: rest -> if l == lit then List.rev_append acc rest else go (l :: acc) rest
  in
  go [] body

let unfold_literal ~defs (r : Rule.t) (lit : Literal.t) : Rule.t list =
  List.filter_map
    (fun def ->
      let def = Rule.rename_apart def in
      match Subst.unify lit def.Rule.head with
      | None -> None
      | Some theta ->
          let body = remove_first lit r.Rule.body @ def.Rule.body in
          let cstr = Conj.and_ r.Rule.cstr def.Rule.cstr in
          (* a variable unified with a symbolic constant cannot appear in the
             numeric constraint; project it away — the same sound weakening
             as [Ptol_ltop.ptol_conj] — instead of dropping the resolvent
             (which would treat a satisfiable symbolic binding as false) *)
          let sym_bound =
            Var.Set.filter
              (fun v ->
                match Subst.apply_term theta (Term.V v) with
                | Term.C (Term.Sym _) -> true
                | _ -> false)
              (Conj.vars cstr)
          in
          let cstr =
            if Var.Set.is_empty sym_bound then cstr
            else Conj.project ~keep:(Var.Set.diff (Conj.vars cstr) sym_bound) cstr
          in
          let resolvent =
            Rule.apply theta (Rule.make ~label:r.Rule.label r.Rule.head body cstr)
          in
          if Conj.is_sat resolvent.Rule.cstr then Some resolvent else None)
    defs

let fold_occurrences ?(check = true) ~primed ~orig cset (r : Rule.t) : Rule.t option =
  let ok = ref true in
  let body =
    List.map
      (fun (l : Literal.t) ->
        if l.Literal.pred <> orig then l
        else begin
          if check then begin
            let required = Ptol_ltop.ptol l cset in
            if not (Cset.conj_implies r.Rule.cstr required) then ok := false
          end;
          { l with Literal.pred = primed }
        end)
      r.Rule.body
  in
  if !ok then Some { r with Rule.body } else None
