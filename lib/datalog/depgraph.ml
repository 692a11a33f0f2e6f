module StringMap = Map.Make (String)
module StringSet = Set.Make (String)

type t = {
  scc_id : int StringMap.t;
  scc_list : string list list; (* reverse topological: callees first *)
}

(* p -> body predicates of rules defining p *)
let build_edges (p : Program.t) =
  List.fold_left
    (fun acc (r : Rule.t) ->
      let hd = r.Rule.head.Literal.pred in
      let deps =
        List.fold_left
          (fun s (l : Literal.t) -> StringSet.add l.Literal.pred s)
          (match StringMap.find_opt hd acc with Some s -> s | None -> StringSet.empty)
          r.Rule.body
      in
      StringMap.add hd deps acc)
    StringMap.empty p.Program.rules

(* Tarjan's strongly-connected-components algorithm.  The natural emission
   order of Tarjan is reverse topological (an SCC is emitted only after all
   SCCs it depends on). *)
let tarjan nodes succs =
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let sccs = ref [] in
  let rec strongconnect v =
    Hashtbl.add index v !counter;
    Hashtbl.add lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.add on_stack v true;
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.find_opt on_stack w = Some true then
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (succs v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            Hashtbl.replace on_stack w false;
            if w = v then w :: acc else pop (w :: acc)
      in
      sccs := pop [] :: !sccs
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) nodes;
  List.rev !sccs

let of_program p =
  let edges = build_edges p in
  let nodes = Program.predicates p in
  let succs v =
    match StringMap.find_opt v edges with Some s -> StringSet.elements s | None -> []
  in
  let scc_list = tarjan nodes succs in
  let scc_id =
    List.fold_left
      (fun (i, acc) scc ->
        (i + 1, List.fold_left (fun acc v -> StringMap.add v i acc) acc scc))
      (0, StringMap.empty) scc_list
    |> snd
  in
  { scc_id; scc_list }

let sccs_top_down g = List.rev g.scc_list

let same_scc g a b =
  match (StringMap.find_opt a g.scc_id, StringMap.find_opt b g.scc_id) with
  | Some i, Some j -> i = j
  | _ -> false
