open Cql_datalog

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

(* ground facts keyed by their values, which give the pattern too (a
   symbol where the pattern has one, a number elsewhere) *)
module GroundKey = struct
  type t = Fact.t

  let equal (a : Fact.t) (b : Fact.t) =
    Array.length a.Fact.terms = Array.length b.Fact.terms
    && Array.for_all2 Term.equal a.Fact.terms b.Fact.terms

  let hash_term acc = function
    | Term.C c -> (acc * 65599) lxor Index.hash_const c
    | Term.V _ -> acc

  let hash (f : Fact.t) = Index.hash_mix (Array.fold_left hash_term 17 f.Fact.terms)
end

module GroundTbl = Hashtbl.Make (GroundKey)

type t = {
  (* partitions, newest-first, so [pending @ delta @ old] is every cell
     newest first; dead cells are filtered on read *)
  mutable old_cells : cell list;
  mutable delta_cells : cell list;
  mutable pending_cells : cell list;
  mutable live_counts : int array; (* live cells per partition tag *)
  indexes : Index.t list array; (* old/delta join indexes by partition tag,
                                   built lazily per probed column set *)
  (* subsumption indexes over every live cell *)
  ground : cell GroundTbl.t; (* fully-pinned facts by (pattern, values) *)
  patterns : (Fact.pos array, sbucket) Hashtbl.t;
  mutable dead : int; (* killed cells the structures above may still hold *)
  mutable compared : int; (* Fact.subsumes calls so far *)
}

let create () =
  {
    old_cells = [];
    delta_cells = [];
    pending_cells = [];
    live_counts = Array.make 3 0;
    indexes = Array.make 2 [];
    ground = GroundTbl.create 64;
    patterns = Hashtbl.create 16;
    dead = 0;
    compared = 0;
  }

let sbucket_of t pat =
  match Hashtbl.find t.patterns pat with
  | b -> b
  | exception Not_found ->
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
    t.live_counts.(c.part) <- t.live_counts.(c.part) - 1;
    t.dead <- t.dead + 1
  end

(* Read paths skip dead cells, but every list, bucket, hash and index
   would keep them for the table's lifetime: a view's writes would grow it
   without bound.  Once the dead outnumber the live, one sweep drops them
   all; it costs O(live + dead) = O(dead), so each kill pays a constant on
   average.  Join indexes are dropped rather than swept; probes rebuild
   them from the swept partitions. *)
let reclaim t =
  if t.dead > live_total t then begin
    let live l = List.filter (fun c -> c.live) l in
    t.old_cells <- live t.old_cells;
    t.delta_cells <- live t.delta_cells;
    t.pending_cells <- live t.pending_cells;
    Hashtbl.filter_map_inplace
      (fun _ b ->
        b.ground_cells <- live b.ground_cells;
        b.general <- live b.general;
        if b.ground_cells = [] && b.general = [] then None else Some b)
      t.patterns;
    GroundTbl.filter_map_inplace (fun _ c -> if c.live then Some c else None) t.ground;
    Array.fill t.indexes 0 (Array.length t.indexes) [];
    t.dead <- 0
  end

(* ----- insertion & subsumption ----- *)

let insert t f =
  let c = { fact = f; live = true; part = p_pending } in
  t.pending_cells <- c :: t.pending_cells;
  t.live_counts.(p_pending) <- t.live_counts.(p_pending) + 1;
  let b = sbucket_of t f.Fact.args in
  if Fact.is_ground f then begin
    b.ground_cells <- c :: b.ground_cells;
    GroundTbl.replace t.ground f c
  end
  else b.general <- c :: b.general

(* Subsumption walks the pattern bucket with top-level loops and counts
   each Fact.subsumes call in [t.compared], so a check allocates nothing:
   no closure, counter or result pair. *)
let rec any_subsumes t f = function
  | [] -> false
  | c :: rest ->
      (c.live
      &&
      (t.compared <- t.compared + 1;
       Fact.subsumes c.fact f))
      || any_subsumes t f rest

(* Is [f] subsumed by a live stored fact?  Only same-pattern facts are
   candidates; a fully-pinned [f] checks the ground hash first (a pinned
   general fact subsumes it only if their constraints agree at [f]'s
   point, which the general scan still covers). *)
let known_subsumes t f =
  match Hashtbl.find t.patterns f.Fact.args with
  | exception Not_found -> false
  | b ->
      if Fact.is_ground f then
        match GroundTbl.find t.ground f with
        | c when c.live -> true
        | _ | (exception Not_found) -> any_subsumes t f b.general
      else
        (* a fully-pinned fact can also subsume a syntactically unpinned
           one whose constraint happens to imply the point *)
        any_subsumes t f b.general || any_subsumes t f b.ground_cells

let rec kill_subsumed t f killed = function
  | [] -> killed
  | c :: rest ->
      if c.live then begin
        t.compared <- t.compared + 1;
        if Fact.subsumes f c.fact then begin
          kill t c;
          kill_subsumed t f (c.fact :: killed) rest
        end
        else kill_subsumed t f killed rest
      end
      else kill_subsumed t f killed rest

(* Drop live facts the new fact subsumes (back-subsumption).  A fully
   pinned [f] denotes a single point: the only ground fact it could
   subsume is its duplicate, which [known_subsumes] already rejected, so
   only general cells need scanning.  Killed facts are reported so a
   maintenance layer can remember them as covered. *)
let back_subsume t f =
  match Hashtbl.find t.patterns f.Fact.args with
  | exception Not_found -> []
  | b ->
      let killed = kill_subsumed t f [] b.general in
      if Fact.is_ground f then killed else kill_subsumed t f killed b.ground_cells

let compared t = t.compared

(* ----- arrivals, structural lookup & deletion ----- *)

type arrival = Equal of Fact.t | Subsumed | Absent

(* a constraint fact against the general cells, in one walk: equality with
   every live cell, subsumption until the first cell that subsumes it *)
let rec classify_general t f subsumed = function
  | [] -> if subsumed then Subsumed else Absent
  | c :: rest ->
      if not c.live then classify_general t f subsumed rest
      else if Fact.equal c.fact f then Equal c.fact
      else
        let subsumed =
          subsumed
          ||
          (t.compared <- t.compared + 1;
           Fact.subsumes c.fact f)
        in
        classify_general t f subsumed rest

(* [known_subsumes] that tells an equal live fact apart: one pattern-bucket
   lookup and, for a ground fact, one ground-hash probe, whose live hit is
   the equal fact.  The table holds no two live equal facts (see
   [insert]'s contract), so the hash entry of a ground fact's values is its
   only candidate. *)
let classify t f =
  match Hashtbl.find t.patterns f.Fact.args with
  | exception Not_found -> Absent
  | b -> (
      if Fact.is_ground f then
        match GroundTbl.find t.ground f with
        | c when c.live -> Equal c.fact
        | _ | (exception Not_found) -> if any_subsumes t f b.general then Subsumed else Absent
      else
        match classify_general t f false b.general with
        | Absent -> if any_subsumes t f b.ground_cells then Subsumed else Absent
        | (Equal _ | Subsumed) as r -> r)

let find_cell_equal t f =
  match Hashtbl.find_opt t.patterns f.Fact.args with
  | None -> None
  | Some b ->
      if Fact.is_ground f then
        match GroundTbl.find_opt t.ground f with Some c when c.live -> Some c | _ -> None
      else List.find_opt (fun c -> c.live && Fact.equal c.fact f) b.general

(* Retire the live cell equal to [f]: killing suffices for every read
   path, [reclaim] frees it later; a ground fact's hash entry goes at
   once. *)
let delete t f =
  match find_cell_equal t f with
  | None -> false
  | Some c ->
      kill t c;
      if Fact.is_ground f then GroundTbl.remove t.ground f;
      reclaim t;
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
  t.indexes.(p_delta) <- [];
  reclaim t

(* ----- probing ----- *)

let rec find_index positions = function
  | [] -> raise Not_found
  | idx :: rest ->
      if List.equal Int.equal (Index.positions idx) positions then idx
      else find_index positions rest

let get_index t part cells positions =
  match find_index positions t.indexes.(part) with
  | idx -> idx
  | exception Not_found ->
      let idx = Index.of_cells positions cells in
      t.indexes.(part) <- idx :: t.indexes.(part);
      idx

(* Probes push candidates to a callback instead of materializing a list,
   and walk the lists with top-level loops, so a probe allocates no result,
   closure or counter.  Both return the number of live facts visited (the
   store's stats). *)

let rec visit_live k n = function
  | [] -> n
  | c :: rest ->
      if c.live then begin
        k c.fact;
        visit_live k (n + 1) rest
      end
      else visit_live k n rest

let iter_probe_one t part cells positions key k =
  let idx = get_index t part cells positions in
  visit_live k (visit_live k 0 (Index.bucket idx key)) (Index.wild idx)

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
  match part with
  | Old -> visit_live k 0 t.old_cells
  | Delta -> visit_live k 0 t.delta_cells
  | Full ->
      let d = visit_live k 0 t.delta_cells in
      d + visit_live k 0 t.old_cells

(* ----- listing ----- *)

(* consing the cells of [pending @ delta @ old], newest first, onto one
   list leaves the live facts oldest first *)
let facts t =
  let cons acc c = if c.live then c.fact :: acc else acc in
  let newer = List.fold_left cons (List.fold_left cons [] t.pending_cells) t.delta_cells in
  List.fold_left cons newer t.old_cells
