(** The solver counters [perfbench/trace.ml] reads, as one record.

    Every solver and cache count lives in the {!Cql_obs.Obs} registry under
    [solver.]: {!Conj}, {!Cset}, {!Simplex} and {!Zsolve} register the
    counters they increment, and {!Memo.create} registers
    [solver.memo.<cache>.hits] and [.misses].  Spans, [cqlopt --metrics] and
    [bench/main.exe json] read the registry directly.  This record re-lists
    the counters the benchmark reads and goes with the next change to
    [perfbench/], which can read them by name instead. *)

type t = {
  sat_checks : int;  (** [solver.sat_checks]: {!Conj.is_sat} entries *)
  implies_checks : int;  (** [solver.implies_checks]: {!Conj.implies} entries *)
  implies_atom_checks : int;  (** [solver.implies_atom_checks] *)
  cset_implies_checks : int;  (** [solver.cset_implies_checks] *)
  project_calls : int;  (** [solver.project_calls] *)
  simplex_runs : int;  (** [solver.simplex_runs] *)
  simplex_pivots : int;  (** [solver.simplex_pivots] *)
  fm_eliminations : int;  (** [solver.fm_eliminations] *)
  interval_sat_hits : int;  (** always [0] *)
  interval_implies_hits : int;  (** always [0] *)
  interval_bails : int;  (** always [0] *)
  int_omega_eliminations : int;  (** [solver.int.omega_eliminations] *)
  int_bb_nodes : int;  (** [solver.int.bb_nodes] *)
  memo_hits : int;  (** the sum of every [solver.memo.*.hits] *)
  memo_misses : int;  (** the sum of every [solver.memo.*.misses] *)
}
(** The [interval_*] fields are always [0]: the solver has no interval
    tier, and the fields stay only because [perfbench/] reads them. *)

val snapshot : unit -> t
val total_hits : t -> int
val total_misses : t -> int
