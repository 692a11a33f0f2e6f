open Cql_constr

type t = { label : string; head : Literal.t; body : Literal.t list; cstr : Conj.t }

let make ?(label = "") head body cstr = { label; head; body; cstr }
let fact ?(label = "") head cstr = { label; head; body = []; cstr }
let is_fact r = r.body = []

let head_vars r = Literal.vars r.head

let body_vars r =
  List.fold_left (fun acc l -> Var.Set.union acc (Literal.vars l)) Var.Set.empty r.body

let vars r = Var.Set.union (head_vars r) (Var.Set.union (body_vars r) (Conj.vars r.cstr))

let apply s r =
  {
    r with
    head = Subst.apply_literal s r.head;
    body = List.map (Subst.apply_literal s) r.body;
    cstr = Subst.apply_conj s r.cstr;
  }

let rename_apart r = apply (Subst.renaming_of (vars r) ~suffix:"") r

let relabel label r = { r with label }
let copy_label r suffix = if r.label = "" then "" else r.label ^ suffix

(* Head variables may also be grounded through equality constraints, e.g.
   T = T1 + T2 + 30 grounds T once T1 and T2 are bound by body literals;
   close the grounded set under single-unknown equalities. *)
let grounded_vars r =
  let rec close grounded =
    let grow =
      List.fold_left
        (fun acc (a : Atom.t) ->
          if a.Atom.op <> Atom.Eq then acc
          else
            let vs = Atom.vars a in
            let unknown = Var.Set.diff vs grounded in
            if Var.Set.cardinal unknown = 1 then Var.Set.union acc unknown else acc)
        Var.Set.empty (Conj.to_list r.cstr)
    in
    if Var.Set.subset grow grounded then grounded else close (Var.Set.union grounded grow)
  in
  close (body_vars r)

let is_range_restricted r = Var.Set.subset (head_vars r) (grounded_vars r)

let compare a b =
  let c = Literal.compare a.head b.head in
  if c <> 0 then c
  else
    let c = List.compare Literal.compare a.body b.body in
    if c <> 0 then c else Conj.compare a.cstr b.cstr

let equal a b = compare a b = 0

(* ----- equality modulo variable renaming and body reordering ----- *)

(* try to extend the variable bijection [m] (a -> b vars) by matching terms *)
let match_term m (t1 : Term.t) (t2 : Term.t) =
  match (t1, t2) with
  | Term.C c1, Term.C c2 -> if Term.equal_const c1 c2 then Some m else None
  | Term.V v1, Term.V v2 -> (
      match Var.Map.find_opt v1 m with
      | Some v -> if Var.equal v v2 then Some m else None
      | None ->
          (* enforce injectivity *)
          if Var.Map.exists (fun _ v -> Var.equal v v2) m then None
          else Some (Var.Map.add v1 v2 m))
  | _ -> None

let match_literal m (l1 : Literal.t) (l2 : Literal.t) =
  if l1.Literal.pred <> l2.Literal.pred then None
  else if List.length l1.Literal.args <> List.length l2.Literal.args then None
  else
    List.fold_left2
      (fun acc t1 t2 -> match acc with None -> None | Some m -> match_term m t1 t2)
      (Some m) l1.Literal.args l2.Literal.args

let equal_mod_renaming a b =
  if List.length a.body <> List.length b.body then false
  else
    (* backtracking match of a.body against a permutation of b.body *)
    let rec go m abody bbody =
      match abody with
      | [] -> check_constraints m
      | l1 :: arest ->
          List.exists
            (fun l2 ->
              match match_literal m l1 l2 with
              | None -> false
              | Some m' -> go m' arest (List.filter (fun l -> not (l == l2)) bbody))
            bbody
    and check_constraints m =
      (* variables occurring only in constraints are existential within the
         rule body: project them away on both sides before comparing *)
      let dom = Var.Map.fold (fun k _ acc -> Var.Set.add k acc) m Var.Set.empty in
      let rng = Var.Map.fold (fun _ v acc -> Var.Set.add v acc) m Var.Set.empty in
      let f v = match Var.Map.find_opt v m with Some v' -> v' | None -> v in
      let ca = Conj.rename f (Conj.project ~keep:dom a.cstr) in
      let cb = Conj.project ~keep:rng b.cstr in
      Conj.equiv ca cb
    in
    match match_literal Var.Map.empty a.head b.head with
    | None -> false
    | Some m -> go m a.body b.body

(* rename variables to short readable names (rules are variable-local, so
   each rule can be renamed independently) *)
let prettify r =
  let base_of v =
    let name = Var.name v in
    match String.index_opt name '\'' with
    | Some i when i > 0 -> String.sub name 0 i
    | _ -> name
  in
  let order = ref [] in
  let see v = if not (List.memq v !order) then order := v :: !order in
  let see_term = function Term.V v -> see v | Term.C _ -> () in
  List.iter see_term r.head.Literal.args;
  List.iter (fun (l : Literal.t) -> List.iter see_term l.Literal.args) r.body;
  List.iter (fun a -> Var.Set.iter see (Atom.vars a)) (Conj.to_list r.cstr);
  let taken = Hashtbl.create 8 in
  (* two-phase rename via fresh temporaries so a target name that coincides
     with another source variable cannot chain *)
  let to_tmp, tmp_to_final =
    List.fold_left
      (fun (t1, t2) v ->
        let base = base_of v in
        let rec pick i =
          let cand = if i = 0 then base else Printf.sprintf "%s%d" base i in
          if Hashtbl.mem taken cand then pick (i + 1) else cand
        in
        let name = pick 0 in
        Hashtbl.add taken name ();
        let tmp = Var.fresh "PRETTY" in
        ((v, Term.var tmp) :: t1, (tmp, Term.var (Var.mk name)) :: t2))
      ([], []) (List.rev !order)
  in
  apply (Subst.of_bindings tmp_to_final) (apply (Subst.of_bindings to_tmp) r)

let pp fmt r =
  let pp_body fmt () =
    let items =
      List.map (fun l -> `L l) r.body @ List.map (fun a -> `A a) (Conj.to_list r.cstr)
    in
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
      (fun fmt -> function `L l -> Literal.pp fmt l | `A a -> Atom.pp fmt a)
      fmt items
  in
  if r.label <> "" then Format.fprintf fmt "%s: " r.label;
  if is_fact r && Conj.is_tt r.cstr then Format.fprintf fmt "%a." Literal.pp r.head
  else Format.fprintf fmt "%a :- %a." Literal.pp r.head pp_body ()

let to_string r = Format.asprintf "%a" pp r
