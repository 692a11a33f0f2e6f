(* The counters perfbench/trace.ml reads, copied out of the Cql_obs registry
   into one record.  Each counter is looked up once, here; a snapshot is then
   one atomic read per field plus a pass over the Memo caches. *)

module Obs = Cql_obs.Obs

type t = {
  sat_checks : int;
  implies_checks : int;
  implies_atom_checks : int;
  cset_implies_checks : int;
  project_calls : int;
  simplex_runs : int;
  simplex_pivots : int;
  fm_eliminations : int;
  interval_sat_hits : int;
  interval_implies_hits : int;
  interval_bails : int;
  int_omega_eliminations : int;
  int_bb_nodes : int;
  memo_hits : int;
  memo_misses : int;
}

let snapshot =
  let read name =
    let c = Obs.counter ("solver." ^ name) in
    fun () -> Obs.value c
  in
  let sat = read "sat_checks" and implies = read "implies_checks"
  and implies_atom = read "implies_atom_checks" and cset_implies = read "cset_implies_checks"
  and project = read "project_calls" and runs = read "simplex_runs"
  and pivots = read "simplex_pivots" and fm = read "fm_eliminations"
  and omega = read "int.omega_eliminations" and bb_nodes = read "int.bb_nodes" in
  fun () ->
    let caches = Memo.stats () in
    let sum f = List.fold_left (fun acc c -> acc + f c) 0 caches in
    {
      sat_checks = sat ();
      implies_checks = implies ();
      implies_atom_checks = implies_atom ();
      cset_implies_checks = cset_implies ();
      project_calls = project ();
      simplex_runs = runs ();
      simplex_pivots = pivots ();
      fm_eliminations = fm ();
      interval_sat_hits = 0;
      interval_implies_hits = 0;
      interval_bails = 0;
      int_omega_eliminations = omega ();
      int_bb_nodes = bb_nodes ();
      memo_hits = sum (fun c -> c.Memo.hits);
      memo_misses = sum (fun c -> c.Memo.misses);
    }

let total_hits s = s.memo_hits
let total_misses s = s.memo_misses
