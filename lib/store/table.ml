open Cql_num

type cell = Index.cell = { fact : Fact.t; mutable live : bool; mutable part : int }

type partition = Old | Delta | Full

(* partition tags carried by cells *)
let p_old = 0
let p_delta = 1
let p_pending = 2

(* subsumption can only relate facts with the same symbolic pattern
   (Fact.same_pattern), so candidates are bucketed by it; a fact's
   [Fact.pos array] is its pattern and keys the buckets as it is *)
type sbucket = {
  mutable ground_cells : cell list; (* every numeric position pinned *)
  mutable general : cell list; (* carries a residual constraint *)
}

(* fully-pinned facts keyed by pattern and values, read off the fact *)
module GroundKey = struct
  type t = Fact.t

  let equal (a : Fact.t) (b : Fact.t) =
    Array.length a.Fact.args = Array.length b.Fact.args
    && a.Fact.args = b.Fact.args
    && Array.for_all2
         (fun a b ->
           match (a, b) with
           | None, None -> true
           | Some x, Some y -> Rat.equal x y
           | _ -> false)
         a.Fact.pinned b.Fact.pinned

  let hash (f : Fact.t) =
    Array.fold_left
      (fun acc o -> (acc * 65599) lxor (match o with Some q -> Rat.hash q | None -> 7))
      (Hashtbl.hash f.Fact.args) f.Fact.pinned
end

module GroundTbl = Hashtbl.Make (GroundKey)
module FactMap = Map.Make (Fact)

type t = {
  (* partitions, newest-first; dead cells are filtered on read *)
  mutable old_cells : cell list;
  mutable delta_cells : cell list;
  mutable pending_cells : cell list;
  mutable all_rev : cell list; (* insertion order (newest first), for listing *)
  mutable live_counts : int array; (* live cells per partition tag *)
  indexes : Index.t list array; (* old/delta join indexes by partition tag,
                                   built lazily per probed column set *)
  (* subsumption indexes over every live cell *)
  ground : cell GroundTbl.t; (* fully-pinned facts by (pattern, values) *)
  patterns : (Fact.pos array, sbucket) Hashtbl.t;
  mutable counts : int FactMap.t; (* per-fact derivation counts (maintenance) *)
}

let create () =
  {
    old_cells = [];
    delta_cells = [];
    pending_cells = [];
    all_rev = [];
    live_counts = Array.make 3 0;
    indexes = Array.make 2 [];
    ground = GroundTbl.create 64;
    patterns = Hashtbl.create 16;
    counts = FactMap.empty;
  }

let sbucket_of t pat =
  match Hashtbl.find_opt t.patterns pat with
  | Some b -> b
  | None ->
      let b = { ground_cells = []; general = [] } in
      Hashtbl.add t.patterns pat b;
      b

let live_total t = t.live_counts.(p_old) + t.live_counts.(p_delta) + t.live_counts.(p_pending)

let part_count t = function
  | Old -> t.live_counts.(p_old)
  | Delta -> t.live_counts.(p_delta)
  | Full -> t.live_counts.(p_old) + t.live_counts.(p_delta)

let kill t c =
  if c.live then begin
    c.live <- false;
    t.live_counts.(c.part) <- t.live_counts.(c.part) - 1
  end

(* ----- derivation counts -----

   Incremental maintenance keeps, per live fact, the number of supports it
   has (EDB multiplicity plus rule firings producing exactly it).  The map
   is keyed by structural fact identity (Fact.compare), so two facts count
   together exactly when retraction treats them as the same fact. *)

let set_count t f n =
  if n <= 0 then t.counts <- FactMap.remove f t.counts
  else t.counts <- FactMap.add f n t.counts

let bump_count ?(by = 1) t f =
  t.counts <-
    FactMap.update f (fun c -> Some (by + Option.value c ~default:0)) t.counts

let count t f = Option.value (FactMap.find_opt f t.counts) ~default:0
let drop_count t f = t.counts <- FactMap.remove f t.counts
let counted_facts t = FactMap.bindings t.counts

(* ----- insertion & subsumption ----- *)

let insert t f =
  let c = { fact = f; live = true; part = p_pending } in
  t.pending_cells <- c :: t.pending_cells;
  t.all_rev <- c :: t.all_rev;
  t.live_counts.(p_pending) <- t.live_counts.(p_pending) + 1;
  let b = sbucket_of t f.Fact.args in
  if Fact.is_ground f then begin
    b.ground_cells <- c :: b.ground_cells;
    GroundTbl.replace t.ground f c
  end
  else b.general <- c :: b.general

(* [known_subsumes t f] is [(hit, comparisons)]: is [f] subsumed by a live
   stored fact, and how many Fact.subsumes calls it took to decide.  Only
   same-pattern facts are candidates; a fully-pinned [f] checks the ground
   hash first (a pinned general fact subsumes it only if their constraints
   agree at [f]'s point, which the general scan still covers). *)
let known_subsumes t f =
  match Hashtbl.find_opt t.patterns f.Fact.args with
  | None -> (false, 0)
  | Some b ->
      let cmp = ref 0 in
      let scan l =
        List.exists
          (fun c ->
            c.live
            &&
            (incr cmp;
             Fact.subsumes c.fact f))
          l
      in
      if Fact.is_ground f then
        match GroundTbl.find_opt t.ground f with
        | Some c when c.live -> (true, 0)
        | _ ->
            let hit = scan b.general in
            (hit, !cmp)
      else begin
        (* a fully-pinned fact can also subsume a syntactically unpinned
           one whose constraint happens to imply the point *)
        let hit = scan b.general || scan b.ground_cells in
        (hit, !cmp)
      end

(* Drop live facts the new fact subsumes (back-subsumption).  A fully
   pinned [f] denotes a single point: the only ground fact it could
   subsume is its duplicate, which [known_subsumes] already rejected, so
   only general cells need scanning.  Killed facts are reported so a
   maintenance layer can remember them as covered (and lose their counts:
   only live facts are counted). *)
let back_subsume t f =
  match Hashtbl.find_opt t.patterns f.Fact.args with
  | None -> (0, [])
  | Some b ->
      let cmp = ref 0 in
      let killed = ref [] in
      let kill_in l =
        List.iter
          (fun c ->
            if c.live then begin
              incr cmp;
              if Fact.subsumes f c.fact then begin
                kill t c;
                drop_count t c.fact;
                killed := c.fact :: !killed
              end
            end)
          l
      in
      kill_in b.general;
      if not (Fact.is_ground f) then kill_in b.ground_cells;
      (!cmp, !killed)

(* ----- structural lookup & deletion ----- *)

let find_cell_equal t f =
  match Hashtbl.find_opt t.patterns f.Fact.args with
  | None -> None
  | Some b ->
      let scan l = List.find_opt (fun c -> c.live && Fact.compare c.fact f = 0) l in
      if Fact.is_ground f then
        match GroundTbl.find_opt t.ground f with
        | Some c when c.live && Fact.compare c.fact f = 0 -> Some c
        | _ -> scan b.ground_cells
      else scan b.general

let find_equal t f = Option.map (fun c -> c.fact) (find_cell_equal t f)
let mem_equal t f = Option.is_some (find_cell_equal t f)

(* Physically retire the live cell structurally equal to [f] (dead cells
   are filtered by every read path, so killing suffices; the ground hash
   entry is refreshed in case another live duplicate remains). *)
let delete t f =
  match find_cell_equal t f with
  | None -> false
  | Some c ->
      kill t c;
      drop_count t c.fact;
      if Fact.is_ground f then begin
        (match GroundTbl.find_opt t.ground f with
        | Some c' when not c'.live -> GroundTbl.remove t.ground f
        | _ -> ());
        match
          List.find_opt
            (fun c2 -> c2.live && Fact.compare c2.fact f = 0)
            (sbucket_of t f.Fact.args).ground_cells
        with
        | Some c2 -> GroundTbl.replace t.ground f c2
        | None -> ()
      end;
      true

(* ----- partitions ----- *)

(* End of iteration: delta joins old (updating old's indexes incrementally),
   pending becomes the next delta.  Delta indexes are rebuilt lazily since
   the partition's contents just changed wholesale. *)
let advance t =
  let promoted = List.filter (fun c -> c.live) t.delta_cells in
  List.iter (fun c -> c.part <- p_old) promoted;
  List.iter (fun idx -> List.iter (fun c -> Index.add idx c) promoted) t.indexes.(p_old);
  t.old_cells <- promoted @ t.old_cells;
  t.live_counts.(p_old) <- t.live_counts.(p_old) + List.length promoted;
  let delta = List.filter (fun c -> c.live) t.pending_cells in
  List.iter (fun c -> c.part <- p_delta) delta;
  t.delta_cells <- delta;
  t.live_counts.(p_delta) <- List.length delta;
  t.pending_cells <- [];
  t.live_counts.(p_pending) <- 0;
  t.indexes.(p_delta) <- []

(* ----- probing ----- *)

let get_index t part cells positions =
  match List.find_opt (fun i -> Index.positions i = positions) t.indexes.(part) with
  | Some idx -> idx
  | None ->
      let idx = Index.of_cells positions cells in
      t.indexes.(part) <- idx :: t.indexes.(part);
      idx

(* Probes push candidates to a callback instead of materializing a list,
   so the compiled executor's inner loop allocates nothing per probe.  Both
   return the number of live facts visited (the store's stats). *)

let iter_probe_one t part cells positions key k =
  let bucket, wild = Index.probe (get_index t part cells positions) key in
  let n = ref 0 in
  let visit l =
    List.iter
      (fun c ->
        if c.live then begin
          incr n;
          k c.fact
        end)
      l
  in
  visit bucket;
  visit wild;
  !n

let iter_probe t part positions key k =
  match part with
  | Old -> iter_probe_one t p_old t.old_cells positions key k
  | Delta -> iter_probe_one t p_delta t.delta_cells positions key k
  | Full ->
      (* delta first, then old: newest partition first (and OCaml's
         right-to-left [+] would visit them backwards) *)
      let d = iter_probe_one t p_delta t.delta_cells positions key k in
      d + iter_probe_one t p_old t.old_cells positions key k

let iter_scan t part k =
  let visit l =
    List.fold_left
      (fun n c ->
        if c.live then begin
          k c.fact;
          n + 1
        end
        else n)
      0 l
  in
  match part with
  | Old -> visit t.old_cells
  | Delta -> visit t.delta_cells
  | Full ->
      let d = visit t.delta_cells in
      d + visit t.old_cells

(* ----- listing ----- *)

let facts t =
  List.rev (List.filter_map (fun c -> if c.live then Some c.fact else None) t.all_rev)
