module Obs = Cql_obs.Obs

type 'a slot = { value : 'a; mutable last_used : int }

type 'a t = {
  m : Mutex.t;
  table : (string, 'a slot) Hashtbl.t;
  max_entries : int;
  mutable tick : int;
  hits : Obs.counter;
  misses : Obs.counter;
  evictions : Obs.counter;
}

let create ~name ~max_entries =
  {
    m = Mutex.create ();
    table = Hashtbl.create 64;
    max_entries = max 1 max_entries;
    tick = 0;
    hits = Obs.counter (name ^ ".hits");
    misses = Obs.counter (name ^ ".misses");
    evictions = Obs.counter (name ^ ".evictions");
  }

let locked t f = Mutex.protect t.m f

let touch t slot =
  t.tick <- t.tick + 1;
  slot.last_used <- t.tick

let find t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.table k with
      | Some slot ->
          touch t slot;
          Obs.incr t.hits;
          Some slot.value
      | None ->
          Obs.incr t.misses;
          None)

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun k slot acc ->
        match acc with
        | Some (_, best) when best.last_used <= slot.last_used -> acc
        | _ -> Some (k, slot))
      t.table None
  in
  Option.map
    (fun (k, slot) ->
      Hashtbl.remove t.table k;
      Obs.incr t.evictions;
      slot.value)
    victim

let add t k value =
  locked t (fun () ->
      let replaced = Hashtbl.find_opt t.table k in
      Hashtbl.remove t.table k;
      let evicted = if Hashtbl.length t.table >= t.max_entries then evict_lru t else None in
      let slot = { value; last_used = 0 } in
      touch t slot;
      Hashtbl.add t.table k slot;
      Option.to_list (Option.map (fun s -> s.value) replaced) @ Option.to_list evicted)

let remove t k =
  locked t (fun () ->
      let slot = Hashtbl.find_opt t.table k in
      Hashtbl.remove t.table k;
      Option.map (fun s -> s.value) slot)

let size t = locked t (fun () -> Hashtbl.length t.table)

type stats = { entries : int; hits : int; misses : int; evictions : int }

let stats (t : _ t) =
  {
    entries = size t;
    hits = Obs.value t.hits;
    misses = Obs.value t.misses;
    evictions = Obs.value t.evictions;
  }
