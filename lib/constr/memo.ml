(* Global registry of the decision-procedure result caches.

   Each cache is keyed by the constraint terms themselves, through the hash
   and equality it is created with (the terms' stored structural hashes and
   structural equality), so a hit depends on what was asked, never on GC
   timing.  A key keeps its term alive, so the tables are bounded, and a
   long-lived worker domain drops its tables between requests.

   A cache keeps two generations per domain: a full current table becomes
   the previous one, and the previous one is dropped.  A lookup that misses
   the current table and hits the previous one moves the entry back, so a
   fixpoint that re-asks a question it asked one table ago still hits.

   Storage is per-domain ([Domain.DLS]): every domain lazily materializes
   its own table for each cache, so lookups and insertions by evaluations
   running concurrently on different domains need no locking and never
   observe a torn table, and [clear_all] empties the calling domain's
   tables only.  Hits and misses are counted in the Cql_obs registry as
   [solver.memo.<name>.hits] and [.misses], so they aggregate exactly
   across domains and traced spans carry their deltas, while [entries] in
   {!stats} reports the calling domain's table only. *)

module Obs = Cql_obs.Obs

let enabled = ref true
(* per-domain, per-cache, per-generation entry bound *)
let max_entries = 4_096

type entry = {
  name : string;
  clear : unit -> unit;
  size : unit -> int;
  hits : Obs.counter;
  misses : Obs.counter;
}

(* the calling domain's tables, behind closures over their [Hashtbl.Make]
   instance *)
type ('k, 'v) cache = { e : entry; find : 'k -> 'v option; add : 'k -> 'v -> unit }

let tables : entry list ref = ref []

(* one domain's two generations of one cache *)
type 'h generations = { mutable current : 'h; mutable previous : 'h }

let create (type k) ~name ~(hash : k -> int) ~(equal : k -> k -> bool) : (k, 'v) cache =
  let module H = Hashtbl.Make (struct
    type t = k

    let hash = hash
    let equal = equal
  end) in
  let slot =
    Domain.DLS.new_key (fun () -> { current = H.create 1024; previous = H.create 1024 })
  in
  let local () = Domain.DLS.get slot in
  let e =
    {
      name;
      clear =
        (fun () ->
          let g = local () in
          H.reset g.current;
          H.reset g.previous);
      size =
        (fun () ->
          let g = local () in
          H.length g.current + H.length g.previous);
      hits = Obs.counter ("solver.memo." ^ name ^ ".hits");
      misses = Obs.counter ("solver.memo." ^ name ^ ".misses");
    }
  in
  tables := e :: !tables;
  (* bounded: a full current table becomes the previous generation and the
     old previous one is dropped wholesale, rather than evicting entry by
     entry — the workloads are fixpoints that re-ask recent questions *)
  let add_to g k v =
    if H.length g.current >= max_entries then begin
      let dropped = g.previous in
      H.reset dropped;
      g.previous <- g.current;
      g.current <- dropped
    end;
    H.add g.current k v
  in
  let find k =
    let g = local () in
    match H.find_opt g.current k with
    | Some _ as r -> r
    | None -> (
        match H.find_opt g.previous k with
        | Some v as r ->
            H.remove g.previous k;
            add_to g k v;
            r
        | None -> None)
  in
  { e; find; add = (fun k v -> add_to (local ()) k v) }

let cached c key compute =
  if not !enabled then compute ()
  else
    match c.find key with
    | Some v ->
        Obs.incr c.e.hits;
        v
    | None ->
        Obs.incr c.e.misses;
        let v = compute () in
        c.add key v;
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
