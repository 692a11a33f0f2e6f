(** Load generator for cqlserved: N concurrent client domains × M requests
    each, over a mix of programs, reporting latency percentiles and
    throughput (the [serve] experiment of [bench/main.exe], which writes
    [experiments.serve] in BENCH_results.json).

    Before driving load it computes, for each of its three workloads (the
    paper's flights program, the D.1 ordering example and Example 4.1,
    with small synthetic EDBs), the answers a one-shot in-process
    evaluation produces (same pipeline, same budgets), and every response
    is checked against them — so the report's [answers_match] asserts
    end-to-end that the service returns exactly what [cqlopt eval] would. *)

type result = {
  clients : int;
  requests_per_client : int;
  total_requests : int;
  ok : int;
  errors : int;
  cache_hits : int;  (** ok replies whose plan came from the plan cache *)
  cache_misses : int;  (** ok replies that compiled their plan *)
  answers_match : bool;  (** every ok response matched its one-shot answers *)
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  mean_ms : float;
  max_ms : float;
  warm_p50_ms : float;  (** over the [cache_hits] replies *)
  warm_p99_ms : float;
  cold_p50_ms : float;  (** over the [cache_misses] replies *)
  cold_p99_ms : float;
  wall_s : float;
  throughput_rps : float;
  workload_names : string list;
  server_stats : Json.t;  (** the server's [stats] response after the run *)
}

val run :
  socket:string -> clients:int -> requests_per_client:int -> (result, string) Stdlib.result
(** Drive a server already listening on [socket].  Each client keeps one
    connection and issues its requests back to back; latency is measured
    per request on the monotonic clock, and split into warm and cold by
    the reply's ["cache"] field.  [Error] when no client could connect. *)

val percentile : int64 array -> int -> float
(** [percentile sorted p] is the nearest-rank [p]th percentile, in
    milliseconds, of [sorted] nanosecond latencies (ascending): the value
    at index ⌈p·n/100⌉ − 1.  [0.0] when [sorted] is empty. *)

val to_json : result -> Json.t
(** The [experiments.serve] payload. *)
