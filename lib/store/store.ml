type partition = Table.partition = Old | Delta | Full
type arrival = Table.arrival = Equal of Fact.t | Subsumed | Absent

type stats = {
  mutable probes : int;
  mutable indexed_probes : int;
  mutable index_hits : int;
  mutable scans : int;
  mutable scanned_facts : int;
  mutable facts_skipped : int;
  mutable subsumption_checks : int;
  mutable subsumption_compared : int;
  mutable subsumption_avoided : int;
}

let zero_stats () =
  {
    probes = 0;
    indexed_probes = 0;
    index_hits = 0;
    scans = 0;
    scanned_facts = 0;
    facts_skipped = 0;
    subsumption_checks = 0;
    subsumption_compared = 0;
    subsumption_avoided = 0;
  }

type t = { tables : (string, Table.t) Hashtbl.t; stats : stats }

let create () = { tables = Hashtbl.create 32; stats = zero_stats () }
let stats s = s.stats

let table s pred =
  match Hashtbl.find_opt s.tables pred with
  | Some t -> t
  | None ->
      let t = Table.create () in
      Hashtbl.add s.tables pred t;
      t

let find_table s pred = Hashtbl.find_opt s.tables pred

(* one subsumption check of [f] against its table, counted in the stats *)
let counted_check s f ~none check =
  let st = s.stats in
  st.subsumption_checks <- st.subsumption_checks + 1;
  match find_table s (Fact.pred f) with
  | None -> none
  | Some t ->
      let before = Table.compared t in
      let r = check t f in
      let compared = Table.compared t - before in
      st.subsumption_compared <- st.subsumption_compared + compared;
      st.subsumption_avoided <- st.subsumption_avoided + (Table.live_total t - compared);
      r

let known_subsumes s f = counted_check s f ~none:false Table.known_subsumes
let classify s f = counted_check s f ~none:Absent Table.classify

(* add a fact known not to be subsumed: back-subsumption first, then into
   the pending partition (it becomes delta at the next advance); the facts
   the newcomer killed are reported for maintenance bookkeeping *)
let add_reporting s f =
  let t = table s (Fact.pred f) in
  let before = Table.compared t in
  let killed = Table.back_subsume t f in
  s.stats.subsumption_compared <- s.stats.subsumption_compared + (Table.compared t - before);
  Table.insert t f;
  killed

let add s f = ignore (add_reporting s f)

let delete s f =
  match find_table s (Fact.pred f) with None -> false | Some t -> Table.delete t f

let advance s = Hashtbl.iter (fun _ t -> Table.advance t) s.tables

let probe_empty_delta s pred ~indexed =
  let st = s.stats in
  match find_table s pred with
  | None ->
      st.probes <- st.probes + 1;
      true
  | Some t ->
      Table.part_count t Delta = 0
      && begin
           st.probes <- st.probes + 1;
           if indexed then st.indexed_probes <- st.indexed_probes + 1
           else st.scans <- st.scans + 1;
           true
         end

(* [iter_probe_cols s part pred positions key k]: candidate facts for a
   body literal whose resolved bound columns are [positions] with constants
   [key], pushed to [k] without building a result list.  With at least one
   bound column the per-predicate hash index on those columns answers the
   probe; otherwise the partition is scanned. *)
let iter_probe_cols s part pred positions key k =
  let st = s.stats in
  st.probes <- st.probes + 1;
  match find_table s pred with
  | None -> ()
  | Some t -> (
      match positions with
      | [] ->
          st.scans <- st.scans + 1;
          let n = Table.iter_scan t part k in
          st.scanned_facts <- st.scanned_facts + n
      | _ ->
          st.indexed_probes <- st.indexed_probes + 1;
          let n = Table.iter_probe t part positions key k in
          st.index_hits <- st.index_hits + n;
          st.facts_skipped <- st.facts_skipped + (Table.part_count t part - n))

let facts s pred = match find_table s pred with None -> [] | Some t -> Table.facts t

let all_facts s =
  Hashtbl.fold (fun pred t acc -> (pred, Table.facts t) :: acc) s.tables []

let total s = Hashtbl.fold (fun _ t acc -> acc + Table.live_total t) s.tables 0
