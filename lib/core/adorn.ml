open Cql_constr
open Cql_datalog

type adornment = string

(* a 0-ary predicate has one adornment, the empty one, and keeps its name *)
let adorned_name pred ad = if ad = "" then pred else pred ^ "_" ^ ad

let split_adorned name =
  match String.rindex_opt name '_' with
  | None -> None
  | Some i ->
      let base = String.sub name 0 i in
      let ad = String.sub name (i + 1) (String.length name - i - 1) in
      if base <> "" && ad <> "" && String.for_all (fun c -> c = 'b' || c = 'c' || c = 'f') ad
      then Some (base, ad)
      else None

let adornment_of (l : Literal.t) =
  match split_adorned l.Literal.pred with
  | Some (_, ad) when String.length ad = Literal.arity l -> Some ad
  | _ -> if Literal.arity l = 0 then Some "" else None

let bound_args ad args =
  if String.length ad <> List.length args then
    invalid_arg "Adorn.bound_args: adornment/arity mismatch";
  List.filteri (fun i _ -> ad.[i] = 'b') args

let literal_adornment ~bound (l : Literal.t) =
  String.init (Literal.arity l) (fun i ->
      match List.nth l.Literal.args i with
      | Term.C _ -> 'b'
      | Term.V v -> if Var.Set.mem v bound then 'b' else 'f')

(* ground-variable closure: bound head vars + vars of processed literals,
   closed under equality constraints with one unknown *)
let close_ground (cstr : Conj.t) vars =
  let rec go g =
    let grow =
      List.fold_left
        (fun acc (a : Atom.t) ->
          if a.Atom.op <> Atom.Eq then acc
          else
            let unknown = Var.Set.diff (Atom.vars a) g in
            if Var.Set.cardinal unknown = 1 then Var.Set.union acc unknown else acc)
        Var.Set.empty (Conj.to_list cstr)
    in
    if Var.Set.subset grow g then g else go (Var.Set.union g grow)
  in
  go vars

let adorn_rule derived (r : Rule.t) (head_ad : adornment) : Rule.t * (string * adornment) list
    =
  let head_bound =
    List.concat
      (List.mapi
         (fun i t ->
           match t with Term.V v when head_ad.[i] = 'b' -> [ v ] | _ -> [])
         r.Rule.head.Literal.args)
  in
  let bound = ref (close_ground r.Rule.cstr (Var.Set.of_list head_bound)) in
  let requested = ref [] in
  let body =
    List.map
      (fun (l : Literal.t) ->
        let l' =
          if List.mem l.Literal.pred derived then begin
            let ad = literal_adornment ~bound:!bound l in
            requested := (l.Literal.pred, ad) :: !requested;
            { l with Literal.pred = adorned_name l.Literal.pred ad }
          end
          else l
        in
        bound := close_ground r.Rule.cstr (Var.Set.union !bound (Literal.vars l));
        l')
      r.Rule.body
  in
  let head = { r.Rule.head with Literal.pred = adorned_name r.Rule.head.Literal.pred head_ad } in
  ({ r with Rule.head; Rule.body }, List.rev !requested)

let reachable ~adorn_rule ~query ~query_adornment (p : Program.t) =
  let derived = Program.derived p in
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let rec process (pred, ad) =
    if not (Hashtbl.mem seen (pred, ad)) then begin
      Hashtbl.add seen (pred, ad) ();
      List.iter
        (fun r ->
          let r', requested = adorn_rule derived r ad in
          out := r' :: !out;
          List.iter process requested)
        (Program.rules_defining p pred)
    end
  in
  process (query, query_adornment);
  Program.make ~query:(adorned_name query query_adornment) (List.rev !out)

let program ~query_adornment (p : Program.t) : Program.t =
  let query =
    match p.Program.query with
    | Some q -> q
    | None -> invalid_arg "Adorn.program: no query predicate"
  in
  (match Program.arity p query with
  | exception Not_found ->
      (* the query predicate occurs nowhere (e.g. every rule mentioning it
         was deleted as unsatisfiable by an earlier rewrite): nothing to
         adorn, the result below is the empty program *)
      ()
  | n ->
      if String.length query_adornment <> n then
        invalid_arg "Adorn.program: adornment length does not match query arity");
  reachable ~adorn_rule ~query ~query_adornment p
