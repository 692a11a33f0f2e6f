(* Tests for the tracing/metrics subsystem (Cql_obs): span nesting and
   parenting, counter deltas, NDJSON export, the allocation-free disabled
   path, and span coverage of the rewrite + evaluation pipelines. *)

open Cql_datalog
module Obs = Cql_obs.Obs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* every test starts from a clean, enabled tracer and leaves it disabled so
   the other suites (which run in separate processes, but also any later
   cases in this one) see the default-off state *)
let with_tracing f =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_enabled false)
    f

let find_event name =
  match List.find_opt (fun (e : Obs.event) -> e.Obs.name = name) (Obs.events ()) with
  | Some e -> e
  | None -> Alcotest.fail ("no event named " ^ name)

let events_named name =
  List.filter (fun (e : Obs.event) -> e.Obs.name = name) (Obs.events ())

(* ----- clock ----- *)

let test_monotonic_clock () =
  let t0 = Obs.monotonic_ns () in
  let t1 = Obs.monotonic_ns () in
  check_bool "monotonic" true (Int64.compare t1 t0 >= 0)

(* ----- spans ----- *)

let test_span_nesting () =
  with_tracing @@ fun () ->
  let r =
    Obs.span "outer" (fun () ->
        Obs.span "inner_a" (fun () -> ()) ;
        Obs.span "inner_b" (fun () -> 21 * 2))
  in
  check_int "span returns the thunk's value" 42 r;
  let outer = find_event "outer" in
  let a = find_event "inner_a" in
  let b = find_event "inner_b" in
  check_int "inner_a parented to outer" outer.Obs.id a.Obs.parent;
  check_int "inner_b parented to outer" outer.Obs.id b.Obs.parent;
  check_int "outer is a root" 0 outer.Obs.parent;
  check_bool "children complete before the parent" true
    (List.for_all (fun (e : Obs.event) -> e.Obs.id > outer.Obs.id) [ a; b ]);
  check_bool "durations nest" true
    (Int64.compare outer.Obs.dur_ns a.Obs.dur_ns >= 0
    && Int64.compare outer.Obs.dur_ns b.Obs.dur_ns >= 0)

let test_span_exception () =
  with_tracing @@ fun () ->
  let raised =
    match Obs.span "boom" (fun () -> failwith "expected") with
    | exception Failure _ -> true
    | _ -> false
  in
  check_bool "exception propagates" true raised;
  let e = find_event "boom" in
  check_bool "event recorded despite the raise" true (e.Obs.name = "boom");
  (* the span stack must be clean: a new span is again a root *)
  Obs.span "after" (fun () -> ());
  check_int "stack unwound" 0 (find_event "after").Obs.parent

let test_fields () =
  with_tracing @@ fun () ->
  Obs.span "with_fields" (fun () ->
      Obs.add_field "answer" 42;
      Obs.add_field_str "tag" "x\"y");
  let e = find_event "with_fields" in
  check_bool "int field" true (List.assoc_opt "answer" e.Obs.fields = Some (Obs.Int 42));
  check_bool "str field" true (List.assoc_opt "tag" e.Obs.fields = Some (Obs.Str "x\"y"))

let test_counter_deltas () =
  with_tracing @@ fun () ->
  let c = Obs.counter "test.obs_delta" in
  Obs.zero "test.obs_delta";
  Obs.span "count3" (fun () ->
      Obs.incr c;
      Obs.add c 2);
  Obs.span "count0" (fun () -> ());
  let e3 = find_event "count3" in
  check_bool "delta attached" true
    (List.assoc_opt "test.obs_delta" e3.Obs.counter_deltas = Some 3);
  let e0 = find_event "count0" in
  check_bool "zero deltas omitted" true
    (List.assoc_opt "test.obs_delta" e0.Obs.counter_deltas = None);
  check_int "counter registry value" 3 (Obs.value c);
  check_bool "counter idempotent by name" true (Obs.counter "test.obs_delta" == c);
  let other = Obs.counter "test.obs_other" in
  Obs.incr other;
  Obs.zero "test.obs_delta";
  check_int "zero clears its prefix" 0 (Obs.value c);
  check_bool "zero leaves other names" true (Obs.value other > 0)

(* ----- disabled path ----- *)

let test_disabled_path () =
  Obs.set_enabled false;
  Obs.reset ();
  let r = Obs.span "ghost" (fun () -> 7) in
  check_int "span still runs the thunk" 7 r;
  Obs.add_field "ghost_field" 1;
  check_int "no events recorded" 0 (List.length (Obs.events ()));
  (* counters are live even with tracing off: the solver and cache counts
     depend on it *)
  let c = Obs.counter "test.obs_disabled" in
  Obs.incr c;
  check_int "counters count when disabled" 1 (Obs.value c)

(* ----- NDJSON export ----- *)

let test_ndjson () =
  with_tracing @@ fun () ->
  let c = Obs.counter "test.obs_json" in
  Obs.zero "test.obs_json";
  Obs.span "parent \"quoted\"" (fun () ->
      Obs.incr c;
      Obs.span "child" (fun () -> Obs.add_field_str "note" "line1\nline2"));
  let lines =
    List.map Obs.event_to_json (Obs.events ())
  in
  check_int "one line per event" 2 (List.length lines);
  List.iter
    (fun l ->
      check_bool "line is a single JSON object" true
        (String.length l > 2
        && l.[0] = '{'
        && l.[String.length l - 1] = '}'
        && not (String.contains l '\n')))
    lines;
  let parent = find_event "parent \"quoted\"" in
  let pj = Obs.event_to_json parent in
  check_bool "quotes escaped" true
    (let sub = {|"name":"parent \"quoted\""|} in
     let n = String.length sub in
     let rec go i = i + n <= String.length pj && (String.sub pj i n = sub || go (i + 1)) in
     go 0);
  check_bool "root parent is null" true
    (let sub = {|"parent":null|} in
     let n = String.length sub in
     let rec go i = i + n <= String.length pj && (String.sub pj i n = sub || go (i + 1)) in
     go 0)

(* ----- summary ----- *)

let test_summary () =
  with_tracing @@ fun () ->
  Obs.span "s" (fun () -> ());
  Obs.span "s" (fun () -> ());
  Obs.span "t" (fun () -> ());
  let rows = Obs.summary () in
  check_int "two distinct names" 2 (List.length rows);
  let s = List.find (fun (r : Obs.summary_row) -> r.Obs.sr_name = "s") rows in
  check_int "s counted twice" 2 s.Obs.sr_count;
  check_bool "total >= max" true (Int64.compare s.Obs.sr_total_ns s.Obs.sr_max_ns >= 0)

(* ----- pipeline coverage ----- *)

let flights_src =
  {|
r1: cheap(S, D, C) :- flight(S, D, C), C <= 150.
r2: flight(S, D, C) :- leg(S, D, C), C > 0.
r3: flight(S, D, C) :- flight(S, X, C1), flight(X, D, C2), C = C1 + C2.
#query cheap.
|}

let test_rewrite_coverage () =
  with_tracing @@ fun () ->
  ignore (Cql_core.Rewrite.constraint_rewrite (Parser.program_of_string flights_src));
  let top = find_event "rewrite.constraint_rewrite" in
  check_int "constraint_rewrite is a root span" 0 top.Obs.parent;
  List.iter
    (fun name -> check_int (name ^ " nested under constraint_rewrite") top.Obs.id
        (find_event name).Obs.parent)
    [ "rewrite.pred_constraints"; "rewrite.qrp.gen"; "rewrite.qrp.propagate" ];
  let pred = find_event "rewrite.pred_constraints" in
  check_bool "pred fixpoint iterations spanned" true
    (List.for_all
       (fun (e : Obs.event) -> e.Obs.parent = pred.Obs.id)
       (events_named "pred.iteration")
    && events_named "pred.iteration" <> []);
  let qrp = find_event "rewrite.qrp.gen" in
  check_bool "qrp fixpoint iterations spanned" true
    (List.for_all
       (fun (e : Obs.event) -> e.Obs.parent = qrp.Obs.id)
       (events_named "qrp.iteration")
    && events_named "qrp.iteration" <> []);
  check_bool "iteration events carry the iteration number" true
    (List.for_all
       (fun (e : Obs.event) ->
         match List.assoc_opt "iteration" e.Obs.fields with
         | Some (Obs.Int i) -> i >= 1
         | _ -> false)
       (events_named "pred.iteration" @ events_named "qrp.iteration"));
  check_bool "fold/unfold steps spanned" true
    (events_named "qrp.unfold" <> [] && events_named "qrp.fold" <> [])

let test_engine_coverage () =
  with_tracing @@ fun () ->
  let p = Parser.program_of_string "p(X) :- e(X).\nq(X) :- p(X), X <= 2.\n#query q." in
  let edb =
    List.map Cql_eval.Fact.of_fact_rule (Parser.facts_of_string "e(1). e(2). e(3).")
  in
  ignore (Cql_eval.Engine.run p ~edb);
  let run = find_event "engine.run" in
  let iters = events_named "engine.iteration" in
  check_bool "iterations recorded" true (iters <> []);
  check_bool "iterations parented to the run" true
    (List.for_all (fun (e : Obs.event) -> e.Obs.parent = run.Obs.id) iters);
  check_bool "delta sizes recorded" true
    (List.for_all
       (fun (e : Obs.event) ->
         List.mem_assoc "delta_added" e.Obs.fields
         && List.mem_assoc "subsumption_hits" e.Obs.fields
         && List.mem_assoc "produced" e.Obs.fields)
       iters);
  (match List.assoc_opt "derivations" run.Obs.fields with
  | Some (Obs.Int d) -> check_bool "derivations positive" true (d > 0)
  | _ -> Alcotest.fail "engine.run has no derivations field");
  check_string "fixpoint field" "true"
    (match List.assoc_opt "fixpoint" run.Obs.fields with
    | Some (Obs.Str s) -> s
    | _ -> "missing")

let test_gmt_coverage () =
  with_tracing @@ fun () ->
  let src =
    {|
r1: p(X, Y) :- U > 10, q(X, U, V), W > V, p(W, Y).
r2: p(X, Y) :- u(X, Y).
r3: q(X, Y, Z) :- q1(X, U), q2(W, Y), q3(U, W, Z).
?- X > 10, p(X, Y).
|}
  in
  ignore (Cql_core.Gmt.pipeline ~query_adornment:"ff" (Parser.program_of_string src));
  let top = find_event "gmt.pipeline" in
  List.iter
    (fun name ->
      check_int (name ^ " under gmt.pipeline") top.Obs.id (find_event name).Obs.parent)
    [ "gmt.adorn_bcf"; "gmt.magic"; "gmt.fold_unfold"; "gmt.inline_seed" ]

let () =
  Alcotest.run "obs"
    [
      ( "core",
        [
          Alcotest.test_case "monotonic clock" `Quick test_monotonic_clock;
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick test_span_exception;
          Alcotest.test_case "fields" `Quick test_fields;
          Alcotest.test_case "counter deltas" `Quick test_counter_deltas;
          Alcotest.test_case "disabled path" `Quick test_disabled_path;
          Alcotest.test_case "ndjson export" `Quick test_ndjson;
          Alcotest.test_case "summary" `Quick test_summary;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "rewrite span coverage" `Quick test_rewrite_coverage;
          Alcotest.test_case "engine span coverage" `Quick test_engine_coverage;
          Alcotest.test_case "gmt span coverage" `Quick test_gmt_coverage;
        ] );
    ]
