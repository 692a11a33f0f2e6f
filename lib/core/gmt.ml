open Cql_constr
open Cql_datalog

(* ----- bcf adornment ----- *)

(* extend (ground, conditioned) with single-unknown constraint atoms: an
   equality over ground variables grounds the unknown; any other constraint
   conditions it *)
let close_ground_cond (cstr : Conj.t) (g, c) =
  let rec go g c =
    let changed = ref false in
    let g = ref g and c = ref c in
    List.iter
      (fun (a : Atom.t) ->
        let known = Var.Set.union !g !c in
        let unknown = Var.Set.diff (Atom.vars a) known in
        if Var.Set.cardinal unknown = 1 then begin
          let v = Var.Set.choose unknown in
          if a.Atom.op = Atom.Eq && Var.Set.subset (Var.Set.diff (Atom.vars a) !g) (Var.Set.singleton v)
          then begin
            g := Var.Set.add v !g;
            changed := true
          end
          else if not (Var.Set.mem v !c) then begin
            c := Var.Set.add v !c;
            changed := true
          end
        end)
      (Conj.to_list cstr);
    if !changed then go !g !c else (!g, !c)
  in
  go g c

let adorn_rule_bcf derived (r : Rule.t) (head_ad : string) =
  let classify ad_char vars_at =
    List.concat
      (List.mapi
         (fun i t ->
           match t with
           | Term.V v when head_ad.[i] = ad_char -> [ v ]
           | _ -> [])
         vars_at)
  in
  let g0 = Var.Set.of_list (classify 'b' r.Rule.head.Literal.args) in
  let c0 = Var.Set.of_list (classify 'c' r.Rule.head.Literal.args) in
  let g, c = close_ground_cond r.Rule.cstr (g0, c0) in
  let ground = ref g and cond = ref c in
  let requested = ref [] in
  let body =
    List.map
      (fun (l : Literal.t) ->
        let l' =
          if List.mem l.Literal.pred derived then begin
            let ad =
              String.init (Literal.arity l) (fun i ->
                  match List.nth l.Literal.args i with
                  | Term.C _ -> 'b'
                  | Term.V v ->
                      if Var.Set.mem v !ground then 'b'
                      else if Var.Set.mem v !cond then 'c'
                      else 'f')
            in
            requested := (l.Literal.pred, ad) :: !requested;
            { l with Literal.pred = Adorn.adorned_name l.Literal.pred ad }
          end
          else l
        in
        let g', c' =
          close_ground_cond r.Rule.cstr
            (Var.Set.union !ground (Literal.vars l), Var.Set.diff !cond (Literal.vars l))
        in
        ground := g';
        cond := c';
        l')
      r.Rule.body
  in
  let head =
    { r.Rule.head with Literal.pred = Adorn.adorned_name r.Rule.head.Literal.pred head_ad }
  in
  ({ r with Rule.head; Rule.body }, List.rev !requested)

let adorn_bcf ~query_adornment (p : Program.t) : Program.t =
  match p.Program.query with
  | Some query -> Adorn.reachable ~adorn_rule:adorn_rule_bcf ~query ~query_adornment p
  | None -> invalid_arg "Gmt.adorn_bcf: no query predicate"

(* ----- groundability and grounding subgoals ----- *)

let conditioned_head_vars (r : Rule.t) =
  match Adorn.split_adorned r.Rule.head.Literal.pred with
  | None -> Var.Set.empty
  | Some (_, ad) ->
      List.fold_left
        (fun acc (i, t) ->
          match t with
          | Term.V v when i < String.length ad && ad.[i] = 'c' -> Var.Set.add v acc
          | _ -> acc)
        Var.Set.empty
        (List.mapi (fun i t -> (i, t)) r.Rule.head.Literal.args)

let grounding_subgoals g (r : Rule.t) =
  let head_pred = r.Rule.head.Literal.pred in
  let chvars = conditioned_head_vars r in
  let gk_lits =
    List.filter
      (fun (l : Literal.t) ->
        (not (Magic.is_magic l.Literal.pred))
        && (not (Depgraph.same_scc g head_pred l.Literal.pred))
        && not (Var.Set.is_empty (Var.Set.inter (Literal.vars l) chvars)))
      r.Rule.body
  in
  let gk_vars =
    List.fold_left (fun acc l -> Var.Set.union acc (Literal.vars l)) Var.Set.empty gk_lits
  in
  let gk_cstr =
    Conj.of_list
      (List.filter (fun a -> Var.Set.subset (Atom.vars a) gk_vars) (Conj.to_list r.Rule.cstr))
  in
  (gk_lits, gk_cstr)

let groundable (p : Program.t) =
  let g = Depgraph.of_program p in
  List.for_all
    (fun (r : Rule.t) ->
      let chvars = conditioned_head_vars r in
      let gk_lits, _ = grounding_subgoals g r in
      let covered =
        List.fold_left (fun acc l -> Var.Set.union acc (Literal.vars l)) Var.Set.empty gk_lits
      in
      Var.Set.subset chvars covered)
    p.Program.rules

(* ----- magic with grounding sips ----- *)

let reorder_grounding_sips (p : Program.t) =
  let g = Depgraph.of_program p in
  Program.map_rules
    (fun (r : Rule.t) ->
      if Var.Set.is_empty (conditioned_head_vars r) then r
      else
        let gk_lits, _ = grounding_subgoals g r in
        let is_gk l = List.exists (fun l' -> l' == l) gk_lits in
        let gk, rest = List.partition is_gk r.Rule.body in
        { r with Rule.body = gk @ rest })
    p

let magic (p : Program.t) : Program.t =
  let p = reorder_grounding_sips p in
  (* reuse the generic template engine with magic heads keeping b and c
     positions *)
  let magic_head (l : Literal.t) =
    match Adorn.adornment_of l with
    | None -> invalid_arg (Printf.sprintf "Gmt.magic: %s is not bcf-adorned" l.Literal.pred)
    | Some ad ->
        let args = List.filteri (fun i _ -> ad.[i] = 'b' || ad.[i] = 'c') l.Literal.args in
        Literal.make (Magic.magic_name l.Literal.pred) args
  in
  Magic.templates_general ~magic_head p

(* ----- the grounding step as fold/unfold (Section 6.2) ----- *)

type defn = {
  s_lit : Literal.t;
  m_lit : Literal.t;
  gk_lits : Literal.t list;
  gk_cstr : Conj.t;
  defn_rule : Rule.t;
}

(* fold a definition into a rule: find a body occurrence of the magic
   literal plus instances of the grounding subgoals, and replace them by the
   supplementary literal *)
let try_fold (d : defn) (r : Rule.t) : Rule.t option =
  let rec find_occ seen = function
    | [] -> None
    | (occ : Literal.t) :: rest ->
        if occ.Literal.pred = d.m_lit.Literal.pred then
          match Simplify.match_literal Var.Map.empty d.m_lit occ with
          | Some m -> (
              match match_gks m [] d.gk_lits (List.rev_append seen rest) with
              | Some (m, used) -> Some (occ, used, m)
              | None -> find_occ (occ :: seen) rest)
          | None -> find_occ (occ :: seen) rest
        else find_occ (occ :: seen) rest
  and match_gks m used gks available =
    match gks with
    | [] -> Some (m, used)
    | gk :: gks_rest ->
        let rec try_candidates seen = function
          | [] -> None
          | (cand : Literal.t) :: cands -> (
              match Simplify.match_literal m gk cand with
              | Some m' -> (
                  match
                    match_gks m' (cand :: used) gks_rest (List.rev_append seen cands)
                  with
                  | Some res -> Some res
                  | None -> try_candidates (cand :: seen) cands)
              | None -> try_candidates (cand :: seen) cands)
        in
        try_candidates [] available
  in
  match find_occ [] r.Rule.body with
  | None -> None
  | Some (occ, used_gks, m) ->
      let subst = Subst.of_bindings (Var.Map.bindings m) in
      let s_inst = Subst.apply_literal subst d.s_lit in
      (* replace the magic occurrence by the supplementary literal; drop the
         matched grounding subgoals and their associated constraints *)
      let body =
        List.filter_map
          (fun (l : Literal.t) ->
            if l == occ then Some s_inst
            else if List.exists (fun u -> u == l) used_gks then None
            else Some l)
          r.Rule.body
      in
      let gk_atoms =
        match Subst.apply_conj subst d.gk_cstr with
        | c -> Conj.to_list c
        | exception Subst.Type_error _ -> []
      in
      let cstr =
        Conj.of_list
          (List.filter
             (fun a -> not (List.exists (Atom.equal a) gk_atoms))
             (Conj.to_list r.Rule.cstr))
      in
      Some { r with Rule.body; Rule.cstr }

let mentions_any preds (r : Rule.t) =
  List.exists (fun (l : Literal.t) -> List.mem l.Literal.pred preds) r.Rule.body

let ground_fold_unfold ~adorned (pmg : Program.t) : Program.t =
  let g = Depgraph.of_program adorned in
  let derived = Program.derived adorned in
  let sccs =
    List.filter
      (fun scc -> List.exists (fun pred -> List.mem pred derived) scc)
      (Depgraph.sccs_top_down g)
  in
  let rules = ref pmg.Program.rules in
  List.iter
    (fun scc ->
      let cpreds =
        List.filter
          (fun pred ->
            List.mem pred derived
            &&
            match Adorn.split_adorned pred with
            | Some (_, ad) -> String.contains ad 'c'
            | None -> false)
          scc
      in
      if cpreds <> [] then begin
        let mnames = List.map Magic.magic_name cpreds in
        (* classify current rules *)
        let r_p, rest =
          List.partition
            (fun (r : Rule.t) -> List.mem r.Rule.head.Literal.pred cpreds)
            !rules
        in
        let m_defs, rest =
          List.partition (fun (r : Rule.t) -> List.mem r.Rule.head.Literal.pred mnames) rest
        in
        let r_m_lower, untouched =
          List.partition
            (fun (r : Rule.t) ->
              Magic.is_magic r.Rule.head.Literal.pred && mentions_any mnames r)
            rest
        in
        (* definition step: one supplementary predicate per rule of a
           conditioned predicate *)
        let defns =
          List.mapi
            (fun k (r : Rule.t) ->
              match r.Rule.body with
              | (m_lit : Literal.t) :: body_rest when List.mem m_lit.Literal.pred mnames ->
                  let gk_lits, gk_cstr =
                    grounding_subgoals g
                      { r with Rule.body = body_rest; Rule.head = r.Rule.head }
                  in
                  (* head pred of the adorned rule for recursion checks uses
                     the adorned name, which r retains *)
                  let nk_lits = List.filter (fun l -> not (List.memq l gk_lits)) body_rest in
                  let gk_vars =
                    List.fold_left
                      (fun acc l -> Var.Set.union acc (Literal.vars l))
                      (Literal.vars m_lit) gk_lits
                  in
                  let later_vars =
                    List.fold_left
                      (fun acc l -> Var.Set.union acc (Literal.vars l))
                      (Literal.vars r.Rule.head) nk_lits
                  in
                  let later_vars =
                    List.fold_left
                      (fun acc a ->
                        if List.exists (Atom.equal a) (Conj.to_list gk_cstr) then acc
                        else Var.Set.union acc (Atom.vars a))
                      later_vars (Conj.to_list r.Rule.cstr)
                  in
                  let s_args = Var.Set.elements (Var.Set.inter gk_vars later_vars) in
                  let s_name =
                    Printf.sprintf "s_%d_%s" (k + 1) r.Rule.head.Literal.pred
                  in
                  let s_lit = Literal.of_vars s_name s_args in
                  let defn_rule =
                    Rule.make ~label:("def_" ^ s_name) s_lit (m_lit :: gk_lits) gk_cstr
                  in
                  Some ({ s_lit; m_lit; gk_lits; gk_cstr; defn_rule }, r)
              | _ -> None)
            r_p
        in
        let defns_ok = List.filter_map (fun x -> x) defns in
        let plain_rp =
          (* rules without a leading conditioned magic guard are left alone *)
          List.filter
            (fun (r : Rule.t) ->
              not (List.exists (fun (_, r') -> r' == r) defns_ok))
            r_p
        in
        (* unfold step: resolve the magic occurrence of each definition rule
           and each lower magic rule against the rules defining the magic
           predicates (one level) *)
        let unfold_once (r : Rule.t) =
          match
            List.find_opt
              (fun (l : Literal.t) -> List.mem l.Literal.pred mnames)
              r.Rule.body
          with
          | None -> [ r ]
          | Some occ -> Foldunfold.unfold_literal ~defs:m_defs r occ
        in
        let r_unf =
          List.concat_map unfold_once (List.map (fun (d, _) -> d.defn_rule) defns_ok)
          @ List.concat_map unfold_once r_m_lower
        in
        let r_mg_unf, r_clean = List.partition (mentions_any mnames) r_unf in
        (* fold step *)
        let ds = List.map fst defns_ok in
        let fold_rule (r : Rule.t) =
          let rec go r = function
            | [] -> r
            | d :: rest -> (
                match try_fold d r with Some r' -> go r' ds | None -> go r rest)
          in
          if mentions_any mnames r then go r ds else r
        in
        let folded_rp =
          List.map
            (fun (d, (r : Rule.t)) ->
              (* by construction the rule's own definition folds exactly *)
              match try_fold d r with Some r' -> r' | None -> fold_rule r)
            defns_ok
        in
        let folded_unf = List.map fold_rule r_mg_unf in
        rules := untouched @ plain_rp @ folded_rp @ folded_unf @ r_clean
      end)
    sccs;
  { pmg with Program.rules = !rules }

let pipeline ~query_adornment (p : Program.t) : Program.t =
  let module Obs = Cql_obs.Obs in
  Obs.span "gmt.pipeline" @@ fun () ->
  let adorned = Obs.span "gmt.adorn_bcf" (fun () -> adorn_bcf ~query_adornment p) in
  if not (groundable adorned) then
    invalid_arg "Gmt.pipeline: the adorned program is not groundable (Definition 6.1)";
  let pmg = Obs.span "gmt.magic" (fun () -> magic adorned) in
  let folded = Obs.span "gmt.fold_unfold" (fun () -> ground_fold_unfold ~adorned pmg) in
  Obs.span "gmt.inline_seed" (fun () -> Magic.inline_seed folded)
