(** Observability counters for the constraint decision procedures.

    Raw counters record every entry into a decision procedure regardless of
    caching (so cache-on and cache-off runs of the same workload report the
    same [*_checks] numbers), while {!Memo} contributes per-cache hit/miss
    statistics at {!snapshot} time.  Counters are process-global; {!reset}
    before a workload to attribute numbers to it.

    The cells are registered in the {!Cql_obs.Obs} counter registry (names
    prefixed ["solver."]), so traced spans carry their deltas and
    [cqlopt --metrics] reports them without going through {!snapshot}. *)

(** {1 Increment hooks (used by [Conj], [Cset] and [Simplex])} *)

val count_sat_check : unit -> unit
val count_implies_check : unit -> unit
val count_implies_atom_check : unit -> unit
val count_cset_implies_check : unit -> unit
val count_project_call : unit -> unit

val count_simplex_run : unit -> unit
(** One complete simplex solve (a cache miss of {!Conj.is_sat}, or a direct
    {!Simplex.is_sat} call). *)

val count_simplex_pivot : unit -> unit
val count_fm_elimination : unit -> unit
(** One Fourier–Motzkin variable elimination (the inequality-combination
    branch of {!Conj.eliminate}; equality substitutions are not counted). *)

val count_pivot_limit : unit -> unit
(** One simplex solve abandoned because it hit its pivot budget
    ({!Simplex.Pivot_limit}); {!Conj.is_sat} counts these when it falls back
    to Fourier–Motzkin. *)

(** {2 Disjointness prefilter ({!Interval})} *)

val count_interval_env_build : unit -> unit
(** One interval environment actually constructed by bound propagation (a
    miss of the ["interval_env"] cache). *)

val count_interval_disjoint_hit : unit -> unit
(** One pairwise implication skipped ({!Cset} prune) or one
    {!Cset.conj_implies} answered early on interval box-disjointness. *)

(** {2 Integer domain ({!Zsolve})} *)

val count_int_sat_check : unit -> unit
(** One entry into the exact integer satisfiability procedure. *)

val count_int_tightened_atom : unit -> unit
(** One atom actually changed by integer tightening (strict bound closed,
    coefficient gcd divided out, or a gcd-infeasible equality refuted). *)

val count_int_omega_elimination : unit -> unit
(** One Omega-test variable elimination (equality substitution, mod-trick
    rewrite, or a dark-shadow inequality projection). *)

val count_int_splinter : unit -> unit
(** One splinter branch tried after a dark-shadow refutation. *)

val count_int_bb_fallback : unit -> unit
(** One satisfiability query handed to branch-and-bound after the Omega
    elimination budget ran out. *)

val count_int_bb_node : unit -> unit
(** One branch-and-bound node solved (one simplex relaxation). *)

(** {1 Snapshots} *)

type t = {
  sat_checks : int;  (** {!Conj.is_sat} entries *)
  implies_checks : int;  (** {!Conj.implies} entries *)
  implies_atom_checks : int;  (** {!Conj.implies_atom} entries *)
  cset_implies_checks : int;  (** {!Cset.conj_implies} entries *)
  project_calls : int;  (** {!Conj.project} entries *)
  simplex_runs : int;
  simplex_pivots : int;
  fm_eliminations : int;
  pivot_limit_hits : int;  (** simplex solves abandoned at the pivot budget *)
  interval_env_builds : int;  (** interval environments constructed *)
  interval_sat_hits : int;  (** always [0], see below *)
  interval_implies_hits : int;  (** always [0], see below *)
  interval_disjoint_hits : int;  (** cset work pruned by box-disjointness *)
  interval_bails : int;  (** always [0], see below *)
  int_sat_checks : int;  (** {!Zsolve.is_sat} entries *)
  int_tightened_atoms : int;  (** atoms changed by integer tightening *)
  int_omega_eliminations : int;  (** Omega-test eliminations performed *)
  int_splinters : int;  (** splinter branches tried *)
  int_bb_fallbacks : int;  (** queries handed to branch-and-bound *)
  int_bb_nodes : int;  (** branch-and-bound nodes solved *)
  caches : Memo.table_stats list;
}
(** [interval_sat_hits], [interval_implies_hits] and [interval_bails] are
    always [0]: no {!Conj} decision consults the interval boxes, which only
    prefilter {!Cset}'s implication checks.  The fields stay only because
    [perfbench/] still reads them. *)

val reset : unit -> unit
(** Zero the raw counters and every cache's hit/miss counters. *)

val snapshot : unit -> t
val total_hits : t -> int
val total_misses : t -> int

val hit_rate : t -> float
(** Hits over lookups across all caches; [0.0] when nothing was looked up. *)

val pp : Format.formatter -> t -> unit
