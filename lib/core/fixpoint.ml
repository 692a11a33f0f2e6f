open Cql_constr
module Obs = Cql_obs.Obs
module StringMap = Map.Make (String)

type result = { constraints : (string * Cset.t) list; iterations : int; converged : bool }

let find r pred =
  match List.assoc_opt pred r.constraints with Some c -> c | None -> Cset.tt

let run ~span ?(max_iters = 50) ~seed step =
  let state = ref (List.fold_left (fun m (d, c) -> StringMap.add d c m) StringMap.empty seed) in
  let current name =
    match StringMap.find_opt name !state with Some c -> c | None -> Cset.tt
  in
  (* C2: the disjunction of what one step infers per derived predicate *)
  let inferred () =
    let c2 = ref StringMap.empty in
    step current (fun pred c ->
        if StringMap.mem pred !state then begin
          let prev = match StringMap.find_opt pred !c2 with Some x -> x | None -> Cset.ff in
          c2 := StringMap.add pred (Cset.or_ prev (Cset.of_conj c)) !c2
        end);
    !c2
  in
  let rec iterate i =
    if i > max_iters then (i - 1, false)
    else begin
      let changed =
        Obs.span span @@ fun () ->
        Obs.add_field "iteration" i;
        StringMap.fold
          (fun pred c2 changed ->
            let c1 = current pred in
            if Cset.implies c2 c1 then changed
            else begin
              state := StringMap.add pred (Cset.or_ c1 c2) !state;
              true
            end)
          (inferred ()) false
      in
      if changed then iterate (i + 1) else (i, true)
    end
  in
  let iterations, converged = iterate 1 in
  Obs.add_field "iterations" iterations;
  Obs.add_field_str "converged" (string_of_bool converged);
  let constraints =
    if converged then StringMap.bindings !state
    else
      (* sound fallback: true for every derived predicate (Section 4.2) *)
      List.map (fun (d, _) -> (d, Cset.tt)) seed
  in
  { constraints; iterations; converged }
