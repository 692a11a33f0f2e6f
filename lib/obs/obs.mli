(** Structured tracing and metrics for the rewrite/evaluation pipeline.

    Spans measure phases on the monotonic clock and nest per domain; atomic
    counters unify the solver statistics with the trace (every event carries
    the counter deltas over its extent); events export as NDJSON, one JSON
    object per line.

    The disabled path — the default unless [set_enabled true] ran or the
    [CQLOPT_TRACE] environment variable is set to a non-empty value other
    than [0]/[false] — costs a single [Atomic.get] per entry point and
    allocates nothing, so instrumentation can stay on the hot pipeline
    permanently. *)

val monotonic_ns : unit -> int64
(** Nanoseconds on the monotonic clock (arbitrary epoch; differences are
    meaningful, absolute values are not). *)

val percentile : float array -> int -> float
(** [percentile sorted p] is the nearest-rank [p]th percentile of the
    ascending samples [sorted]: the value at index ⌈p·n/100⌉ − 1, so [p]
    = 0 is the least sample and 100 the greatest.  [0.0] when [sorted] is
    empty. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** {1 Counters}

    Registered process-wide by name; [counter] returns the existing cell
    when the name is already taken, so libraries can share counters without
    coordinating.  All operations are atomic and domain-safe. *)

type counter

val counter : string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val zero : string -> unit
(** [zero prefix] sets every registered counter whose name starts with
    [prefix] to [0] ([zero "solver."] before a workload attributes the
    solver's counts to it). *)

val counters : unit -> (string * int) list
(** Current value of every registered counter, sorted by name. *)

(** {1 Spans} *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] and, when tracing is enabled, records an event
    with [f]'s wall-clock extent, the calling domain's innermost open span
    as parent, any fields attached while the span was open, and the delta
    of every registered counter over the extent.  The event is recorded
    even when [f] raises (and the exception is re-raised).  When tracing is
    disabled this is [f ()] after one atomic load. *)

val add_field : string -> int -> unit
(** Attach an integer field to the calling domain's innermost open span;
    no-op when tracing is disabled or no span is open. *)

val add_field_str : string -> string -> unit

(** {1 Events} *)

type field = Int of int | Str of string

type event = {
  id : int;  (** unique, monotonic across the process *)
  parent : int;  (** enclosing span's id; [0] for a root span *)
  name : string;
  domain : int;  (** domain the span ran on *)
  start_ns : int64;
  dur_ns : int64;
  fields : (string * field) list;  (** in attachment order *)
  counter_deltas : (string * int) list;  (** nonzero counter deltas *)
}

val events : unit -> event list
(** Completed events in completion order. *)

val reset : unit -> unit
(** Drop all recorded events (counters keep their values). *)

val dropped_events : unit -> int
(** Events discarded because the buffer hit the backstop size. *)

val event_to_json : event -> string
(** One JSON object, no trailing newline. *)

val write_ndjson : out_channel -> unit
(** Every recorded event as NDJSON: one [event_to_json] line per event. *)

(** {1 Summary} *)

type summary_row = {
  sr_name : string;
  sr_count : int;
  sr_total_ns : int64;
  sr_max_ns : int64;
}

val summary : unit -> summary_row list
(** Events aggregated by span name, heaviest total first. *)

val pp_summary : Format.formatter -> unit -> unit
(** Human-readable table of {!summary} plus all nonzero counters. *)
