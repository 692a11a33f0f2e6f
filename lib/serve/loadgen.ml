open Cql_datalog
module Obs = Cql_obs.Obs
module Engine = Cql_eval.Engine
module Fact = Cql_eval.Fact

type workload = { name : string; program : string; edb : string; pipeline : string }

let flights_program =
  {|
r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.
r2: cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.
r3: flight(Src, Dst, Time, Cost) :- singleleg(Src, Dst, Time, Cost), Cost > 0, Time > 0.
r4: flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2),
                          T = T1 + T2 + 30, C = C1 + C2.
#query cheaporshort.
|}

let flights_edb =
  {|
singleleg(c0, c1, 45, 30). singleleg(c1, c2, 120, 95). singleleg(c2, c3, 70, 60).
singleleg(c3, c4, 200, 40). singleleg(c4, c5, 35, 110). singleleg(c5, c0, 90, 25).
|}

let d1_program =
  {|
r1: q(X, Y) :- a1(X, Y), X <= 4.
r2: a1(X, Y) :- b1(X, Z), a2(Z, Y).
r3: a2(X, Y) :- b2(X, Y).
r4: a2(X, Y) :- b2(X, Z), a2(Z, Y).
#query q.
|}

let d1_edb =
  {|
b1(1, 100). b1(3, 200). b1(7, 300).
b2(100, 101). b2(101, 102). b2(102, 103).
b2(200, 201). b2(201, 202).
b2(300, 301).
|}

let ex41_program =
  {|
r1: q(X) :- p1(X, Y), p2(Y), X + Y <= 6, X >= 2.
r2: p1(X, Y) :- b1(X, Y).
r3: p2(X) :- b2(X).
#query q.
|}

let ex41_edb =
  {|
b1(2, 1). b1(2, 4). b1(3, 3). b1(5, 1). b1(4, 2). b1(1, 1).
b2(1). b2(2). b2(3). b2(4). b2(9).
|}

let workloads =
  [
    { name = "flights"; program = flights_program; edb = flights_edb; pipeline = "pred,qrp" };
    { name = "d1"; program = d1_program; edb = d1_edb; pipeline = "pred,qrp" };
    { name = "ex41"; program = ex41_program; edb = ex41_edb; pipeline = "optimal" };
  ]

type result = {
  clients : int;
  requests_per_client : int;
  total_requests : int;
  ok : int;
  errors : int;
  cache_hits : int;
  cache_misses : int;
  answers_match : bool;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  mean_ms : float;
  max_ms : float;
  warm_p50_ms : float;
  warm_p99_ms : float;
  cold_p50_ms : float;
  cold_p99_ms : float;
  wall_s : float;
  throughput_rps : float;
  workload_names : string list;
  server_stats : Json.t;
}

(* one-shot reference answers: the same compile + evaluate the server does,
   in this process, with the default admission budgets *)
let oneshot_answers (w : workload) =
  let p = Parser.program_of_string w.program in
  let edb = List.map Fact.of_fact_rule (Parser.facts_of_string w.edb) in
  let prog =
    match Server.rewrite ~pipeline:w.pipeline p with
    | Ok (_, prog) -> prog
    | Error (_, msg) -> invalid_arg msg
  in
  let res = Engine.run ~max_iterations:200 ~max_derivations:200_000 prog ~edb in
  List.map Fact.to_string (Engine.answers res prog)

type client_tally = {
  mutable c_ok : int;
  mutable c_errors : int;
  mutable c_match : bool;
  mutable c_lat_ns : int64 list;  (* every request *)
  mutable c_hit_ns : int64 list;  (* ok replies with "cache": "hit" *)
  mutable c_miss_ns : int64 list;  (* ok replies with "cache": "miss" *)
}

let drive_client ~socket ~requests ~workloads ~expected idx =
  let tally =
    { c_ok = 0; c_errors = 0; c_match = true; c_lat_ns = []; c_hit_ns = []; c_miss_ns = [] }
  in
  match Client.connect_retry socket with
  | Error _ ->
      tally.c_errors <- requests;
      tally.c_match <- false;
      tally
  | Ok client ->
      let nw = Array.length workloads in
      for i = 0 to requests - 1 do
        let w = workloads.((idx + i) mod nw) in
        let t0 = Obs.monotonic_ns () in
        let resp =
          Client.eval client ~tenant:(Printf.sprintf "client%d" idx) ~edb:w.edb
            ~pipeline:w.pipeline ~program:w.program ()
        in
        let dt = Int64.sub (Obs.monotonic_ns ()) t0 in
        tally.c_lat_ns <- dt :: tally.c_lat_ns;
        match resp with
        | Ok j when Client.is_ok j ->
            tally.c_ok <- tally.c_ok + 1;
            (match Option.bind (Json.member "cache" j) Json.to_str with
            | Some "hit" -> tally.c_hit_ns <- dt :: tally.c_hit_ns
            | Some "miss" -> tally.c_miss_ns <- dt :: tally.c_miss_ns
            | _ -> ());
            if Client.answers j <> expected.((idx + i) mod nw) then tally.c_match <- false
        | Ok _ | Error _ -> tally.c_errors <- tally.c_errors + 1
      done;
      Client.close client;
      tally

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let i = max 0 (min (n - 1) ((((p * n) + 99) / 100) - 1)) in
    Int64.to_float sorted.(i) /. 1e6

let sorted_latencies field tallies =
  let a = Array.of_list (List.concat_map field tallies) in
  Array.sort Int64.compare a;
  a

let run ~socket ~clients ~requests_per_client =
  let clients = max 1 clients in
  let workloads = Array.of_list workloads in
  let expected = Array.map oneshot_answers workloads in
  (* fail fast (and leave a clear error) when nothing is listening *)
  match Client.connect_retry socket with
  | Error msg -> Error msg
  | Ok probe -> (
      let probe_ok = Result.is_ok (Client.ping probe) in
      if not probe_ok then begin
        Client.close probe;
        Error "server did not answer a ping"
      end
      else begin
        let t0 = Obs.monotonic_ns () in
        let domains =
          List.init clients (fun idx ->
              Domain.spawn (fun () ->
                  drive_client ~socket ~requests:requests_per_client ~workloads ~expected idx))
        in
        let tallies = List.map Domain.join domains in
        let wall_s = Int64.to_float (Int64.sub (Obs.monotonic_ns ()) t0) /. 1e9 in
        let stats_json =
          match Client.stats probe with Ok j -> j | Error msg -> Json.Str ("error: " ^ msg)
        in
        Client.close probe;
        let lats = sorted_latencies (fun t -> t.c_lat_ns) tallies in
        let hits = sorted_latencies (fun t -> t.c_hit_ns) tallies in
        let misses = sorted_latencies (fun t -> t.c_miss_ns) tallies in
        let n = Array.length lats in
        let total = clients * requests_per_client in
        let sum = Array.fold_left Int64.add 0L lats in
        Ok
          {
            clients;
            requests_per_client;
            total_requests = total;
            ok = List.fold_left (fun acc t -> acc + t.c_ok) 0 tallies;
            errors = List.fold_left (fun acc t -> acc + t.c_errors) 0 tallies;
            cache_hits = Array.length hits;
            cache_misses = Array.length misses;
            answers_match = List.for_all (fun t -> t.c_match) tallies;
            p50_ms = percentile lats 50;
            p95_ms = percentile lats 95;
            p99_ms = percentile lats 99;
            mean_ms = (if n = 0 then 0.0 else Int64.to_float sum /. 1e6 /. float_of_int n);
            max_ms = percentile lats 100;
            warm_p50_ms = percentile hits 50;
            warm_p99_ms = percentile hits 99;
            cold_p50_ms = percentile misses 50;
            cold_p99_ms = percentile misses 99;
            wall_s;
            throughput_rps = (if wall_s > 0.0 then float_of_int total /. wall_s else 0.0);
            workload_names = Array.to_list (Array.map (fun w -> w.name) workloads);
            server_stats = stats_json;
          }
      end)

let to_json r =
  Json.Obj
    [
      ("clients", Json.Int r.clients);
      ("requests_per_client", Json.Int r.requests_per_client);
      ("total_requests", Json.Int r.total_requests);
      ("ok", Json.Int r.ok);
      ("errors", Json.Int r.errors);
      ("cache_hits", Json.Int r.cache_hits);
      ("cache_misses", Json.Int r.cache_misses);
      ("answers_match_oneshot", Json.Bool r.answers_match);
      ("p50_ms", Json.Float r.p50_ms);
      ("p95_ms", Json.Float r.p95_ms);
      ("p99_ms", Json.Float r.p99_ms);
      ("mean_ms", Json.Float r.mean_ms);
      ("max_ms", Json.Float r.max_ms);
      ("warm_p50_ms", Json.Float r.warm_p50_ms);
      ("warm_p99_ms", Json.Float r.warm_p99_ms);
      ("cold_p50_ms", Json.Float r.cold_p50_ms);
      ("cold_p99_ms", Json.Float r.cold_p99_ms);
      ("wall_seconds", Json.Float r.wall_s);
      ("throughput_rps", Json.Float r.throughput_rps);
      ("workloads", Json.List (List.map (fun n -> Json.Str n) r.workload_names));
      ("server_stats", r.server_stats);
    ]
