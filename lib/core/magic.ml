open Cql_constr
open Cql_datalog

let magic_name pred = "m_" ^ pred

let is_magic pred = String.length pred > 2 && String.sub pred 0 2 = "m_"

(* constraints carried by a magic rule: the projection of the source rule's
   constraints onto the magic rule's variables (Section 7.2) *)
let magic_constraints (cstr : Conj.t) (lits : Literal.t list) =
  let keep =
    List.fold_left (fun acc l -> Var.Set.union acc (Literal.vars l)) Var.Set.empty lits
  in
  Conj.simplify (Conj.project ~keep cstr)

let templates_general ~magic_head (p : Program.t) : Program.t =
  let query =
    match p.Program.query with
    | Some q -> q
    | None -> invalid_arg "Magic: no query predicate"
  in
  let derived = Program.derived p in
  let rules = ref [] in
  let emit r = rules := r :: !rules in
  (* magic rules emitted so far, by head predicate.  A magic rule whose body
     is only its own head derives only facts its body fact subsumes, and
     one equal up to renaming to an earlier one derives nothing new:
     neither is emitted *)
  let magic_rules = Hashtbl.create 16 in
  let emit_magic (r : Rule.t) =
    let pred = r.Rule.head.Literal.pred in
    let earlier = Option.value ~default:[] (Hashtbl.find_opt magic_rules pred) in
    let tautology = match r.Rule.body with [ l ] -> Literal.equal l r.Rule.head | _ -> false in
    if not (tautology || List.exists (Rule.equal_mod_renaming r) earlier) then begin
      Hashtbl.replace magic_rules pred (r :: earlier);
      emit r
    end
  in
  (* seed: a magic fact for the query predicate over fresh variables.  The
     query predicate can be absent entirely (every rule mentioning it deleted
     as unsatisfiable by an earlier rewrite); then there is nothing to seed
     and the query correctly computes no answers. *)
  (match Program.arity p query with
  | exception Not_found -> ()
  | n -> emit (Rule.fact ~label:"seed" (magic_head (Literal.fresh_args query n)) Conj.tt));
  List.iter
    (fun (r : Rule.t) ->
      let m_head_lit = magic_head r.Rule.head in
      (* modified original rule: guard with the head's magic literal *)
      emit
        { r with Rule.body = m_head_lit :: r.Rule.body };
      (* one magic rule per derived body literal, left-to-right sips: the
         magic literal of the head plus all body literals to the left *)
      let rec walk before = function
        | [] -> ()
        | (lit : Literal.t) :: rest ->
            if List.mem lit.Literal.pred derived then begin
              let body = m_head_lit :: List.rev before in
              let mhead = magic_head lit in
              let cstr = magic_constraints r.Rule.cstr (mhead :: body) in
              emit_magic
                (Rule.make
                   ~label:("m" ^ r.Rule.label ^ "_" ^ string_of_int (List.length before + 1))
                   mhead body cstr)
            end;
            walk (lit :: before) rest
      in
      walk [] r.Rule.body)
    p.Program.rules;
  { Program.rules = List.rev !rules; Program.query = Some query }

let inline_seed (p : Program.t) : Program.t =
  match
    List.find_opt
      (fun (r : Rule.t) -> r.Rule.label = "seed" && Rule.is_fact r && Conj.is_tt r.Rule.cstr)
      p.Program.rules
  with
  | None -> p
  | Some seed ->
      let sname = seed.Rule.head.Literal.pred in
      let only_seed =
        List.for_all
          (fun (r : Rule.t) -> r.Rule.head.Literal.pred <> sname || r == seed)
          p.Program.rules
      in
      if not only_seed then p
      else
        let rules =
          List.filter_map
            (fun (r : Rule.t) ->
              if r == seed then None
              else
                Some
                  {
                    r with
                    Rule.body =
                      List.filter (fun (l : Literal.t) -> l.Literal.pred <> sname) r.Rule.body;
                  })
            p.Program.rules
        in
        { p with Program.rules = rules }

let templates_complete (p : Program.t) : Program.t =
  let magic_head (l : Literal.t) = { l with Literal.pred = magic_name l.Literal.pred } in
  templates_general ~magic_head p

let templates_bf ?(constraint_magic = true) (p : Program.t) : Program.t =
  (* every derived predicate heads a rule, so this checks them all *)
  let magic_head (l : Literal.t) =
    match Adorn.adornment_of l with
    | None -> invalid_arg (Printf.sprintf "Magic.templates_bf: %s is not adorned" l.Literal.pred)
    | Some ad -> Literal.make (magic_name l.Literal.pred) (Adorn.bound_args ad l.Literal.args)
  in
  let out = templates_general ~magic_head p in
  if constraint_magic then out
  else
    (* plain magic: drop the constraints of magic rules entirely (the
       paper's second option in Section 1, rule mr1') *)
    Program.map_rules
      (fun (r : Rule.t) ->
        if is_magic r.Rule.head.Literal.pred && r.Rule.label <> "seed" then
          { r with Rule.cstr = Conj.tt }
        else r)
      out
