(* Spans and counters recorded by the benchmark around its calls into each
   layer.  Nothing here reaches inside the libraries: a span's extent is
   the extent of one public call, and its counters are deltas of counters
   the libraries already expose, read at the span's boundaries.

   One recorder belongs to one domain.  Spans stay in memory until the run
   ends; a disabled recorder costs one branch per call. *)

module Obs = Cql_obs.Obs
module Solver_stats = Cql_constr.Solver_stats

type span = {
  id : int;
  name : string;
  op : int;  (** the operation this span belongs to *)
  parent : int;  (** 0 for an operation's root span *)
  t0 : int64;
  mutable t1 : int64;
  mutable counters : (string * float) list;
}

type t = {
  on : bool;
  dom : int;  (** recorder index, folded into span ids to keep them unique *)
  mutable next : int;
  mutable stack : span list;
  mutable spans : span list;
  totals : (string, float) Hashtbl.t;  (** counter sums over the run *)
  samples : (string, float list) Hashtbl.t;  (** per-operation values, for percentiles *)
}

let create ~on ~dom =
  { on; dom; next = 1; stack = []; spans = []; totals = Hashtbl.create 64; samples = Hashtbl.create 4 }
let now = Obs.monotonic_ns

let span tr ~op name f =
  if not tr.on then f ()
  else begin
    let parent = match tr.stack with s :: _ -> s.id | [] -> 0 in
    let s = { id = (tr.next * 8) + tr.dom; name; op; parent; t0 = now (); t1 = 0L; counters = [] } in
    tr.next <- tr.next + 1;
    tr.stack <- s :: tr.stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        tr.stack <- List.tl tr.stack;
        tr.spans <- s :: tr.spans)
      f
  end

let add tr key v = Hashtbl.replace tr.totals key (v +. Option.value ~default:0. (Hashtbl.find_opt tr.totals key))

(* attach a counter to the innermost open span and add it to the run total *)
let count tr key v =
  if tr.on then begin
    (match tr.stack with s :: _ -> s.counters <- (key, v) :: s.counters | [] -> ());
    add tr key v
  end

let sample tr key v =
  if tr.on then
    Hashtbl.replace tr.samples key (v :: Option.value ~default:[] (Hashtbl.find_opt tr.samples key))

(* Children of the most recently closed span whose durations were measured
   by another process (the daemon reports rewrite_ms and eval_ms).  They are
   laid end to end from the parent's start: only their durations carry
   information. *)
let add_measured_children tr children =
  if tr.on then
    match tr.spans with
    | [] -> ()
    | parent :: _ ->
        ignore
          (List.fold_left
             (fun start (name, ms) ->
               let stop = Int64.add start (Int64.of_float (ms *. 1e6)) in
               let stop = if Int64.compare stop parent.t1 > 0 then parent.t1 else stop in
               let s =
                 { id = (tr.next * 8) + tr.dom; name; op = parent.op; parent = parent.id;
                   t0 = start; t1 = stop; counters = [] }
               in
               tr.next <- tr.next + 1;
               tr.spans <- s :: tr.spans;
               stop)
             parent.t0
             (List.filter (fun (_, ms) -> ms > 0.) children))

(* ----- counter snapshots at span boundaries ----- *)

let allocated_bytes () =
  let minor, promoted, major = Gc.counters () in
  (minor +. major -. promoted) *. float_of_int (Sys.word_size / 8)

let solver_counters (s : Solver_stats.t) =
  [
    ("sat_checks", s.sat_checks);
    ("implies_checks", s.implies_checks + s.implies_atom_checks + s.cset_implies_checks);
    ("project_calls", s.project_calls);
    ("simplex_runs", s.simplex_runs);
    ("simplex_pivots", s.simplex_pivots);
    ("fm_eliminations", s.fm_eliminations);
    ("interval_decided", s.interval_sat_hits + s.interval_implies_hits);
    ("interval_bails", s.interval_bails);
    ("memo_hits", Solver_stats.total_hits s);
    ("memo_misses", Solver_stats.total_misses s);
    ("int.omega_eliminations", s.int_omega_eliminations);
    ("int.bb_nodes", s.int_bb_nodes);
  ]

(* [solver_span tr ~op name f]: a span around [f] whose counters are the
   solver and allocation deltas over it, filed under "solver.<name>." and
   "<name>.alloc_bytes".  The snapshots are read outside the span, so their
   cost is not charged to the layer. *)
let solver_span tr ~op name f =
  if not tr.on then f ()
  else begin
    let s0 = Solver_stats.snapshot () and a0 = allocated_bytes () in
    let r = span tr ~op name f in
    let a1 = allocated_bytes () and s1 = Solver_stats.snapshot () in
    let attach key v =
      (match tr.spans with s :: _ -> s.counters <- (key, v) :: s.counters | [] -> ());
      add tr key v
    in
    attach (name ^ ".alloc_bytes") (a1 -. a0);
    List.iter2
      (fun (k, v0) (_, v1) -> attach ("solver." ^ name ^ "." ^ k) (float_of_int (v1 - v0)))
      (solver_counters s0) (solver_counters s1);
    r
  end

(* ----- summaries ----- *)

let all_spans trs = List.concat_map (fun tr -> tr.spans) trs
let total key trs = List.fold_left (fun acc tr -> acc +. Option.value ~default:0. (Hashtbl.find_opt tr.totals key)) 0. trs
let samples key trs =
  List.concat_map (fun tr -> Option.value ~default:[] (Hashtbl.find_opt tr.samples key)) trs

let dur s = Int64.to_float (Int64.sub s.t1 s.t0)

let self_ns spans =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace covered s.parent (dur s +. Option.value ~default:0. (Hashtbl.find_opt covered s.parent)))
    spans;
  fun s -> dur s -. Option.value ~default:0. (Hashtbl.find_opt covered s.id)

type row = { layer : string; spans : int; total_ms : float; self_ms : float }

(* per span name: count, total and self time, largest self time first *)
let layer_rows spans =
  let self = self_ns spans in
  let rows = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let n, t, st = Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt rows s.name) in
      Hashtbl.replace rows s.name (n + 1, t +. dur s, st +. self s))
    spans;
  Hashtbl.fold
    (fun layer (spans, t, st) acc -> { layer; spans; total_ms = t /. 1e6; self_ms = st /. 1e6 } :: acc)
    rows []
  |> List.sort (fun a b -> compare b.self_ms a.self_ms)

let pp_table oc ~workload ~ops ~overhead_pct rows =
  let op_ms = List.fold_left (fun acc r -> acc +. r.self_ms) 0. rows in
  Printf.fprintf oc "%s: per-layer self time over %d traced ops\n" workload ops;
  Printf.fprintf oc "  %-16s %8s %12s %12s %10s %7s\n" "layer" "spans" "total_ms" "self_ms"
    "self_ms/op" "share";
  List.iter
    (fun r ->
      Printf.fprintf oc "  %-16s %8d %12.2f %12.2f %10.4f %6.1f%%\n" r.layer r.spans r.total_ms
        r.self_ms
        (r.self_ms /. float_of_int (max 1 ops))
        (100. *. r.self_ms /. Float.max op_ms 1e-9))
    rows;
  Printf.fprintf oc "  tracing overhead: %.1f%% of untraced ops/s\n%!" overhead_pct

let write_ndjson path ~origin spans =
  let self = self_ns spans in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun s ->
      Printf.fprintf oc
        {|{"id":%d,"parent":%d,"op":%d,"name":%S,"start_ns":%Ld,"end_ns":%Ld,"self_ns":%.0f,"counters":{%s}}|}
        s.id s.parent s.op s.name (Int64.sub s.t0 origin) (Int64.sub s.t1 origin) (self s)
        (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%.17g" k v) (List.rev s.counters)));
      output_char oc '\n')
    (List.sort (fun a b -> Int64.compare a.t0 b.t0) spans)
