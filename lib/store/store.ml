type partition = Table.partition = Old | Delta | Full
type arrival = Equal | Subsumed | Stored of Fact.t list

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

module Tables = Hashtbl.Make (String)

type t = { tables : Table.t Tables.t; stats : stats }

let create () = { tables = Tables.create 32; stats = zero_stats () }
let stats s = s.stats

(* found by [Tables.find]: the lookups of arrivals and probes allocate no
   option *)
let table s pred =
  match Tables.find s.tables pred with
  | t -> t
  | exception Not_found ->
      let t = Table.create () in
      Tables.add s.tables pred t;
      t

let find_table s pred = Tables.find_opt s.tables pred

(* count one subsumption check against [t], which has made
   [Table.compared t - before] comparisons since it began *)
let count_check s t before =
  let st = s.stats in
  let compared = Table.compared t - before in
  st.subsumption_checks <- st.subsumption_checks + 1;
  st.subsumption_compared <- st.subsumption_compared + compared;
  st.subsumption_avoided <- st.subsumption_avoided + (Table.live_total t - compared)

let known_subsumes s f =
  match find_table s (Fact.pred f) with
  | None ->
      s.stats.subsumption_checks <- s.stats.subsumption_checks + 1;
      false
  | Some t ->
      let before = Table.compared t in
      let r = Table.known_subsumes t f in
      count_check s t before;
      r

(* back-subsumption, then into the pending partition (the fact becomes
   delta at the next advance); the facts it killed are returned for
   maintenance bookkeeping *)
let store_in s t b f =
  let before = Table.compared t in
  let killed = Table.store_in t b f in
  s.stats.subsumption_compared <- s.stats.subsumption_compared + (Table.compared t - before);
  killed

let stored_alone = Stored []

(* one lookup of the predicate's table and of the fact's bucket serve both
   the check and the insertion; a fact that kills nothing allocates no
   verdict *)
let arrive s f =
  let t = table s (Fact.pred f) in
  let b = Table.bucket t f in
  let before = Table.compared t in
  let v = Table.check_in t b f in
  count_check s t before;
  match v with
  | Table.Equal -> Equal
  | Table.Subsumed -> Subsumed
  | Table.Absent -> (
      match store_in s t b f with [] -> stored_alone | killed -> Stored killed)

let add_reporting s f =
  let t = table s (Fact.pred f) in
  store_in s t (Table.bucket t f) f

let add s f = ignore (add_reporting s f)

let delete s f =
  match find_table s (Fact.pred f) with None -> false | Some t -> Table.delete t f

let advance s = Tables.iter (fun _ t -> Table.advance t) s.tables

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

let all_facts s = Tables.fold (fun pred t acc -> (pred, Table.facts t) :: acc) s.tables []
let total s = Tables.fold (fun _ t acc -> acc + Table.live_total t) s.tables 0
