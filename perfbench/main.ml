(* The repository benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--setup-only]

   Sets up workload W from seed N (untimed beyond set-up time, including a
   first cold pass over its distinct inputs), then runs a closed loop for S
   seconds.  Every answer is checked against a reference that does not use
   the code under test.  The last line of standard output is one JSON object:
   with --trace 0 the end-to-end metrics, with --trace 1 the per-layer
   metrics of a traced run (spans written to perfbench/out/). *)

module type WORKLOAD = sig
  type t

  val setup : seed:int -> t
  val cold_samples : t -> Measure.sample list
  val run : t -> seconds:float -> trace:bool -> Measure.phase * Trace.t list
  val peak_rss_mb : t -> float
  val teardown : t -> unit

  val speed_scaled : bool
  (** whether reported times are scaled by the speed kernel ({!Measure.kernel}) *)
end

let workloads : (string * (module WORKLOAD)) list =
  [
    ("paper-eval", (module Paper_eval));
    ("rewrite-corpus", (module Rewrite_corpus));
    ("serve-mixed", (module Serve_mixed));
  ]

let out_dir = Filename.concat "perfbench" "out"

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value = (if Float.is_nan value then 0. else value); unit_ }

let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map (fun x -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name x.value x.unit_) metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " body)

(* [setup_scale] and [scale] turn the times measured in set-up and in the
   timed phase into times at the speed kernel's reference speed *)
let end_to_end ~setup_s ~setup_scale ~scale ~rss (phase : Measure.phase) cold =
  let s = phase.samples in
  let n = float_of_int (max 1 (List.length s)) in
  let p q cls = scale *. Measure.percentile q (Measure.latencies cls s) in
  let cold_ms =
    List.map (( *. ) setup_scale) (Measure.latencies Measure.Cold cold)
    @ List.map (( *. ) scale) (Measure.latencies Measure.Cold s)
  in
  [
    m "setup_s" "s" (setup_scale *. setup_s);
    m "ops_per_s" "1/s" (Measure.ops_per_s phase /. scale);
    m "latency_p50_ms" "ms" (p 0.5 Measure.Main);
    m "latency_p90_ms" "ms" (p 0.9 Measure.Main);
    m "cold_latency_p50_ms" "ms" (Measure.median cold_ms);
    m "write_latency_p50_ms" "ms" (p 0.5 Measure.Write);
    m "alloc_mb_per_op" "MB" (phase.alloc_bytes /. n /. 1e6);
    m "peak_rss_mb" "MB" rss;
  ]

(* the self-time columns every workload reports, zero where a layer is idle *)
let layers = [ "op"; "parser"; "load"; "rewrite"; "compile"; "engine"; "serve"; "check" ]

let per_layer ~overhead_pct (phase : Measure.phase) trs =
  let ops = float_of_int (max 1 (List.length phase.samples)) in
  let writes = float_of_int (List.length (Measure.latencies Measure.Write phase.samples)) in
  let rows = Trace.layer_rows (Trace.all_spans trs) in
  let row l = List.find_opt (fun (r : Trace.row) -> r.layer = l) rows in
  let total_ms l = match row l with Some r -> r.total_ms | None -> 0. in
  let self_ms l = match row l with Some r -> r.self_ms | None -> 0. in
  let c k = Trace.total k trs in
  let ratio a b = if b > 0. then a /. b else 0. in
  let per_op k = c k /. ops in
  let derivations = c "engine.derivations" +. c "engine.maintain_derivations" in
  let solver phase =
    let k s = "solver." ^ phase ^ "." ^ s in
    List.map
      (fun s -> m (k s) "count" (per_op (k s)))
      [ "sat_checks"; "implies_checks"; "project_calls"; "simplex_runs"; "simplex_pivots";
        "fm_eliminations"; "int.omega_eliminations"; "int.bb_nodes" ]
    @ [
        m (k "interval_decided_ratio") "ratio"
          (ratio (c (k "interval_decided")) (c (k "interval_decided") +. c (k "interval_bails")));
        m (k "memo_hit_ratio") "ratio" (ratio (c (k "memo_hits")) (c (k "memo_hits") +. c (k "memo_misses")));
      ]
  in
  let pct q k = Measure.percentile q (Trace.samples k trs) in
  [
    m "parser.ms_per_op" "ms" (total_ms "parser" /. ops);
    m "parser.us_per_kb" "us" (ratio (total_ms "parser" *. 1e3) (c "parser.bytes" /. 1024.));
    m "load.ms_per_op" "ms" (total_ms "load" /. ops);
    m "load.us_per_fact" "us" (ratio (total_ms "load" *. 1e3) (c "load.facts"));
    m "rewrite.ms_per_op" "ms" (total_ms "rewrite" /. ops);
    m "rewrite.pred_iterations" "count" (per_op "rewrite.pred_iterations");
    m "rewrite.qrp_iterations" "count" (per_op "rewrite.qrp_iterations");
    m "rewrite.unconverged" "count" (per_op "rewrite.unconverged");
    m "rewrite.rules_out" "count" (per_op "rewrite.rules_out");
    m "rewrite.qrp_disjuncts" "count" (per_op "rewrite.qrp_disjuncts");
  ]
  @ solver "rewrite" @ solver "engine"
  @ [
      m "compile.ms_per_op" "ms" (total_ms "compile" /. ops);
      m "engine.ms_per_op" "ms" (total_ms "engine" /. ops);
      m "engine.derivations" "count" (per_op "engine.derivations");
      m "engine.us_per_derivation" "us" (ratio (total_ms "engine" *. 1e3) derivations);
      m "engine.alloc_bytes_per_derivation" "B" (ratio (c "engine.alloc_bytes") derivations);
      m "engine.subsumed_ratio" "ratio" (ratio (c "engine.subsumed") (c "engine.derivations"));
      m "store.probe_selectivity" "ratio"
        (ratio (c "store.index_hits") (c "store.index_hits" +. c "store.facts_skipped"));
      m "store.subsumptions_avoided" "count" (per_op "store.subsumptions_avoided");
      m "engine.maintain_derivations_per_write" "count" (ratio (c "engine.maintain_derivations") writes);
      m "engine.rederived_ratio" "ratio" (ratio (c "engine.rederived") (c "engine.over_deleted"));
      m "serve.overhead_ms_p50" "ms" (pct 0.5 "serve.overhead_ms");
      m "serve.overhead_ms_p90" "ms" (pct 0.9 "serve.overhead_ms");
      m "serve.warm_overhead_share" "ratio" (ratio (c "serve.warm_overhead_ms") (c "serve.warm_rtt_ms"));
      m "serve.plan_cache_hit_ratio" "ratio"
        (ratio (c "serve.plan_hits") (c "serve.plan_hits" +. c "serve.plan_misses"));
      m "serve.view_cache_hit_ratio" "ratio"
        (ratio (c "serve.view_hits") (c "serve.view_hits" +. c "serve.view_misses"));
      m "serve.admission_rejects" "count" (c "serve.admission_rejects");
    ]
  @ List.map (fun l -> m (l ^ ".self_ms_per_op") "ms" (self_ms l /. ops)) layers
  @ [
      m "trace.op_unaccounted_ratio" "ratio"
        (ratio (self_ms "op") (List.fold_left (fun acc (r : Trace.row) -> acc +. r.self_ms) 0. rows));
      m "trace.overhead_pct" "%" overhead_pct;
    ]

let failures samples = List.length (List.filter (fun (s : Measure.sample) -> not s.ok) samples)

let main workload seed seconds trace setup_only =
  let (module W : WORKLOAD) =
    match List.assoc_opt workload workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "perfbench: unknown workload %S (one of: %s)\n" workload
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  if not (Refcheck.self_test ()) then begin
    prerr_endline "perfbench: the reference checker failed its self-test";
    exit 3
  end;
  let speed_before = Measure.kernel_burst 20 in
  let t0 = Measure.now_s () in
  let st = W.setup ~seed in
  let setup_s = Measure.now_s () -. t0 in
  let speed ks = if W.speed_scaled then Measure.kernel_ref_ms /. Measure.median ks else 1. in
  let setup_scale = speed (speed_before @ Measure.kernel_burst 20) in
  Fun.protect ~finally:(fun () -> W.teardown st) @@ fun () ->
  let cold = W.cold_samples st in
  if setup_only then begin
    (* set-up is repeated in fresh processes and the median taken; so is
       the cold pass of the in-process workloads *)
    let cold_ms = Measure.latencies Measure.Cold cold in
    print_result ~correct:(failures cold = 0) ~attempted:(max 1 (List.length cold)) ~failed:(failures cold)
      (m "setup_s" "s" (setup_scale *. setup_s)
      :: (if cold_ms = [] then [] else [ m "cold_latency_p50_ms" "ms" (setup_scale *. Measure.median cold_ms) ]))
  end
  else begin
    (* the speed kernel runs just before and after the phase, and between
       operations of the in-process workloads *)
    let run ~seconds ~trace =
      let before = Measure.kernel_burst 20 in
      let phase, trs = W.run st ~seconds ~trace in
      let ks = before @ phase.kernel_samples @ Measure.kernel_burst 20 in
      Printf.eprintf "perfbench: speed kernel %.4f ms (median of %d)\n%!" (Measure.median ks) (List.length ks);
      (phase, trs, speed ks)
    in
    let phase, metrics =
      if not trace then
        let phase, _, scale = run ~seconds ~trace:false in
        (phase, end_to_end ~setup_s ~setup_scale ~scale ~rss:(W.peak_rss_mb st) phase cold)
      else begin
        let plain, _, _ = run ~seconds:(seconds /. 2.) ~trace:false in
        let traced, trs, _ = run ~seconds:(seconds /. 2.) ~trace:true in
        let rate (p : Measure.phase) = float_of_int (List.length p.samples) /. p.wall_s in
        let overhead_pct = 100. *. (rate plain -. rate traced) /. rate plain in
        if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
        let spans = Trace.all_spans trs in
        let origin = List.fold_left (fun acc (s : Trace.span) -> min acc s.t0) Int64.max_int spans in
        Trace.write_ndjson (Filename.concat out_dir (workload ^ "-spans.ndjson")) ~origin spans;
        let rows = Trace.layer_rows spans in
        let ops = List.length traced.samples in
        Trace.pp_table stderr ~workload ~ops ~overhead_pct rows;
        let oc = open_out (Filename.concat out_dir (workload ^ "-layers.txt")) in
        Trace.pp_table oc ~workload ~ops ~overhead_pct rows;
        close_out oc;
        (Measure.merge [ plain; traced ], per_layer ~overhead_pct traced trs)
      end
    in
    let attempted = List.length cold + List.length phase.samples in
    let failed = failures cold + failures phase.samples in
    Printf.eprintf "perfbench: %s seed=%d: %d ops, failed_op_ratio=%g\n%!" workload seed attempted
      (float_of_int failed /. float_of_int (max 1 attempted));
    print_result ~correct:(failed = 0) ~attempted ~failed metrics
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 and setup_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--setup-only", Arg.Set setup_only, " set up, report setup_s, and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  main !workload !seed !seconds (!trace = 1) !setup_only
