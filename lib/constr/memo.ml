(* Global registry of the decision-procedure result caches.

   Each cache is keyed by hash-cons ids (never by the terms themselves), so
   caches do not retain constraint terms and a cleared or collected term can
   never alias a live entry: ids are allocated from a monotonic counter and
   never reused.

   Storage is per-domain ([Domain.DLS]): every domain lazily materializes
   its own Hashtbl for each cache, so lookups and insertions by evaluations
   running concurrently on different domains need no locking and never
   observe a torn table.  [clear_all] bumps a per-cache epoch; a domain whose local table
   is from an older epoch drops it on its next access.  Hits and misses are
   counted in the Cql_obs registry as [solver.memo.<name>.hits] and
   [.misses], so they aggregate exactly across domains and traced spans
   carry their deltas, while [entries] in {!stats} reports the calling
   domain's table only. *)

module Obs = Cql_obs.Obs

let enabled = ref true
(* per-domain, per-cache entry bound *)
let max_entries = 4_096

type entry = {
  name : string;
  clear : unit -> unit;
  size : unit -> int;
  hits : Obs.counter;
  misses : Obs.counter;
}

type ('k, 'v) cache = {
  e : entry;
  epoch : int Atomic.t;
  slot : (int ref * ('k, 'v) Hashtbl.t) Domain.DLS.key;
}

let tables : entry list ref = ref []

(* Fetch the calling domain's table, dropping it first if a [clear_all]
   has bumped the epoch since this domain last looked. *)
let local_table c =
  let seen, tbl = Domain.DLS.get c.slot in
  let now = Atomic.get c.epoch in
  if !seen <> now then begin
    Hashtbl.reset tbl;
    seen := now
  end;
  tbl

let create ~name =
  let epoch = Atomic.make 0 in
  let slot = Domain.DLS.new_key (fun () -> (ref (Atomic.get epoch), Hashtbl.create 1024)) in
  let rec c = { e; epoch; slot }
  and e =
    {
      name;
      (* bumping the epoch invalidates every domain's table lazily; resetting
         the caller's own table eagerly keeps [stats] coherent right after a
         clear *)
      clear =
        (fun () ->
          Atomic.incr epoch;
          ignore (local_table c));
      size = (fun () -> Hashtbl.length (local_table c));
      hits = Obs.counter ("solver.memo." ^ name ^ ".hits");
      misses = Obs.counter ("solver.memo." ^ name ^ ".misses");
    }
  in
  tables := e :: !tables;
  c

let cached c key compute =
  if not !enabled then compute ()
  else
    let tbl = local_table c in
    match Hashtbl.find_opt tbl key with
    | Some v ->
        Obs.incr c.e.hits;
        v
    | None ->
        Obs.incr c.e.misses;
        let v = compute () in
        (* bounded: a full cache is dropped wholesale rather than evicted
           entry-by-entry — the workloads are fixpoints that re-ask the same
           questions, so a periodic cold restart costs little *)
        if Hashtbl.length tbl >= max_entries then Hashtbl.reset tbl;
        Hashtbl.add tbl key v;
        v

type table_stats = { name : string; hits : int; misses : int; entries : int }

let stats () =
  List.rev_map
    (fun (e : entry) ->
      { name = e.name; hits = Obs.value e.hits; misses = Obs.value e.misses; entries = e.size () })
    !tables

let clear_all () = List.iter (fun (e : entry) -> e.clear ()) !tables

let with_caches on f =
  let prev = !enabled in
  clear_all ();
  enabled := on;
  Fun.protect
    ~finally:(fun () ->
      enabled := prev;
      clear_all ())
    f
