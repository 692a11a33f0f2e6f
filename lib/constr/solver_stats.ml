(* Counters are registered in the Cql_obs registry, so every traced span
   automatically carries the delta of each decision-procedure counter over
   its extent, and `cqlopt --metrics` reports them alongside span timings.
   The cells are [Atomic.t] underneath: concurrent decision-procedure calls
   from requests on different domains count exactly; the sequential cost
   is one fetch-and-add per counted event. *)

module Obs = Cql_obs.Obs

let sat_checks = Obs.counter "solver.sat_checks"
let implies_checks = Obs.counter "solver.implies_checks"
let implies_atom_checks = Obs.counter "solver.implies_atom_checks"
let cset_implies_checks = Obs.counter "solver.cset_implies_checks"
let project_calls = Obs.counter "solver.project_calls"
let simplex_runs = Obs.counter "solver.simplex_runs"
let simplex_pivots = Obs.counter "solver.simplex_pivots"
let fm_eliminations = Obs.counter "solver.fm_eliminations"
let pivot_limit_hits = Obs.counter "solver.pivot_limit_hits"
let interval_env_builds = Obs.counter "solver.interval.env_builds"
let interval_sat_hits = Obs.counter "solver.interval.sat_hits"
let interval_implies_hits = Obs.counter "solver.interval.implies_hits"
let interval_disjoint_hits = Obs.counter "solver.interval.disjoint_hits"
let interval_bails = Obs.counter "solver.interval.bails"
let int_sat_checks = Obs.counter "solver.int.sat_checks"
let int_tightened_atoms = Obs.counter "solver.int.tightened_atoms"
let int_omega_eliminations = Obs.counter "solver.int.omega_eliminations"
let int_splinters = Obs.counter "solver.int.splinters"
let int_bb_fallbacks = Obs.counter "solver.int.bb_fallbacks"
let int_bb_nodes = Obs.counter "solver.int.bb_nodes"

let count_sat_check () = Obs.incr sat_checks
let count_implies_check () = Obs.incr implies_checks
let count_implies_atom_check () = Obs.incr implies_atom_checks
let count_cset_implies_check () = Obs.incr cset_implies_checks
let count_project_call () = Obs.incr project_calls
let count_simplex_run () = Obs.incr simplex_runs
let count_simplex_pivot () = Obs.incr simplex_pivots
let count_fm_elimination () = Obs.incr fm_eliminations
let count_pivot_limit () = Obs.incr pivot_limit_hits
let count_interval_env_build () = Obs.incr interval_env_builds
let count_interval_sat_hit () = Obs.incr interval_sat_hits
let count_interval_implies_hit () = Obs.incr interval_implies_hits
let count_interval_disjoint_hit () = Obs.incr interval_disjoint_hits
let count_interval_bail () = Obs.incr interval_bails
let count_int_sat_check () = Obs.incr int_sat_checks
let count_int_tightened_atom () = Obs.incr int_tightened_atoms
let count_int_omega_elimination () = Obs.incr int_omega_eliminations
let count_int_splinter () = Obs.incr int_splinters
let count_int_bb_fallback () = Obs.incr int_bb_fallbacks
let count_int_bb_node () = Obs.incr int_bb_nodes

type t = {
  sat_checks : int;
  implies_checks : int;
  implies_atom_checks : int;
  cset_implies_checks : int;
  project_calls : int;
  simplex_runs : int;
  simplex_pivots : int;
  fm_eliminations : int;
  pivot_limit_hits : int;
  interval_env_builds : int;
  interval_sat_hits : int;
  interval_implies_hits : int;
  interval_disjoint_hits : int;
  interval_bails : int;
  int_sat_checks : int;
  int_tightened_atoms : int;
  int_omega_eliminations : int;
  int_splinters : int;
  int_bb_fallbacks : int;
  int_bb_nodes : int;
  caches : Memo.table_stats list;
}

let reset () =
  Obs.set sat_checks 0;
  Obs.set implies_checks 0;
  Obs.set implies_atom_checks 0;
  Obs.set cset_implies_checks 0;
  Obs.set project_calls 0;
  Obs.set simplex_runs 0;
  Obs.set simplex_pivots 0;
  Obs.set fm_eliminations 0;
  Obs.set pivot_limit_hits 0;
  Obs.set interval_env_builds 0;
  Obs.set interval_sat_hits 0;
  Obs.set interval_implies_hits 0;
  Obs.set interval_disjoint_hits 0;
  Obs.set interval_bails 0;
  Obs.set int_sat_checks 0;
  Obs.set int_tightened_atoms 0;
  Obs.set int_omega_eliminations 0;
  Obs.set int_splinters 0;
  Obs.set int_bb_fallbacks 0;
  Obs.set int_bb_nodes 0;
  Memo.reset_stats ()

let snapshot () =
  {
    sat_checks = Obs.value sat_checks;
    implies_checks = Obs.value implies_checks;
    implies_atom_checks = Obs.value implies_atom_checks;
    cset_implies_checks = Obs.value cset_implies_checks;
    project_calls = Obs.value project_calls;
    simplex_runs = Obs.value simplex_runs;
    simplex_pivots = Obs.value simplex_pivots;
    fm_eliminations = Obs.value fm_eliminations;
    pivot_limit_hits = Obs.value pivot_limit_hits;
    interval_env_builds = Obs.value interval_env_builds;
    interval_sat_hits = Obs.value interval_sat_hits;
    interval_implies_hits = Obs.value interval_implies_hits;
    interval_disjoint_hits = Obs.value interval_disjoint_hits;
    interval_bails = Obs.value interval_bails;
    int_sat_checks = Obs.value int_sat_checks;
    int_tightened_atoms = Obs.value int_tightened_atoms;
    int_omega_eliminations = Obs.value int_omega_eliminations;
    int_splinters = Obs.value int_splinters;
    int_bb_fallbacks = Obs.value int_bb_fallbacks;
    int_bb_nodes = Obs.value int_bb_nodes;
    caches = Memo.stats ();
  }

let total_hits s =
  List.fold_left (fun acc (c : Memo.table_stats) -> acc + c.Memo.hits) 0 s.caches

let total_misses s =
  List.fold_left (fun acc (c : Memo.table_stats) -> acc + c.Memo.misses) 0 s.caches

let hit_rate s =
  let h = total_hits s and m = total_misses s in
  if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)

let pp fmt s =
  Format.fprintf fmt
    "solver: sat_checks=%d implies=%d implies_atom=%d cset_implies=%d project=%d@\n"
    s.sat_checks s.implies_checks s.implies_atom_checks s.cset_implies_checks s.project_calls;
  Format.fprintf fmt
    "solver: simplex_runs=%d simplex_pivots=%d fm_eliminations=%d pivot_limit_hits=%d@\n"
    s.simplex_runs s.simplex_pivots s.fm_eliminations s.pivot_limit_hits;
  Format.fprintf fmt
    "solver: interval env_builds=%d sat_hits=%d implies_hits=%d disjoint_hits=%d bails=%d@\n"
    s.interval_env_builds s.interval_sat_hits s.interval_implies_hits s.interval_disjoint_hits
    s.interval_bails;
  Format.fprintf fmt
    "solver: int sat_checks=%d tightened=%d omega_eliminations=%d splinters=%d bb_fallbacks=%d \
     bb_nodes=%d@\n"
    s.int_sat_checks s.int_tightened_atoms s.int_omega_eliminations s.int_splinters
    s.int_bb_fallbacks s.int_bb_nodes;
  List.iter
    (fun (c : Memo.table_stats) ->
      Format.fprintf fmt "cache : %-16s hits=%-8d misses=%-8d entries=%-7d hit_rate=%.3f@\n"
        c.Memo.name c.Memo.hits c.Memo.misses c.Memo.entries (Memo.hit_rate c))
    s.caches;
  Format.fprintf fmt "cache : overall hit_rate=%.3f (%d hits / %d lookups)@\n" (hit_rate s)
    (total_hits s)
    (total_hits s + total_misses s)
