(* serve-mixed: a cqlserved daemon (--workers 2) in its own process, driven
   by a closed loop of 2 client connections — no more connections than the
   daemon has workers, since a connection holds a worker for its lifetime,
   and none idle while the clock runs.  Mix per client: warm flights evals
   (plan-cache hits), cold evals (a selection constant never sent before, so
   the plan cache misses and rewrite + compile run on the request path),
   insert/retract writes on the client's own flights views, and view
   queries.  Every answer is checked by the flights walk enumerator. *)

open Cql_serve

(* sizes, recorded in workloads.json *)
let workers = 2
let clients = 2
let warm_inputs = 512
let warm_cities = 3
let view_cities = 12
let degree = 1
let views_per_client = 4
let leg_time = (40, 160)
let leg_cost = (30, 120)

(* op mix, in percent *)
let cold_pct = 8
let write_pct = 12
let query_pct = 5

type input = { edb : string; expected : string list }

type view = { name : string; writes : Inputs.writes }

type client = {
  idx : int;
  conn : Client.t;
  tenant : string;
  views : view array;
  order : Random.State.t;
  mutable ops : int;
}

type t = {
  pid : int;
  inputs : input array;
  clients : client array;
  setup_samples : Measure.sample list;
}

let program = Inputs.flights_program ~tmax:"240" ~cmax:"150"
let num j key = match Json.member key j with Some (Json.Float f) -> f | Some (Json.Int i) -> float_of_int i | _ -> 0.
let fail_response j = failwith (Option.value ~default:"error response" (Client.error_message j))

(* one request: the round trip is the "serve" span, with the daemon's own
   rewrite_ms / eval_ms as its measured children; the rest of the round
   trip is framing, JSON, parsing, admission and queue wait *)
let request tr ~op ~warm f =
  let t0 = Cql_obs.Obs.monotonic_ns () in
  let r = Trace.span tr ~op "serve" f in
  let rtt_ms = Int64.to_float (Int64.sub (Cql_obs.Obs.monotonic_ns ()) t0) /. 1e6 in
  match r with
  | Error msg -> failwith msg
  | Ok j when not (Client.is_ok j) -> fail_response j
  | Ok j ->
      let rewrite_ms = num j "rewrite_ms" and eval_ms = num j "eval_ms" in
      Trace.add_measured_children tr [ ("rewrite", rewrite_ms); ("engine", eval_ms) ];
      (* the daemon's engine counters, as its responses report them *)
      Option.iter (fun o -> Trace.count tr "engine.derivations" (num o "derivations")) (Json.member "stats" j);
      Option.iter
        (fun o ->
          List.iter
            (fun (key, field) -> Trace.count tr key (num o field))
            [ ("engine.maintain_derivations", "derivations"); ("engine.over_deleted", "over_deleted");
              ("engine.rederived", "rederived") ])
        (Json.member "maintain" j);
      if warm then begin
        Trace.sample tr "serve.overhead_ms" (rtt_ms -. rewrite_ms -. eval_ms);
        Trace.count tr "serve.warm_rtt_ms" rtt_ms;
        Trace.count tr "serve.warm_overhead_ms" (rtt_ms -. rewrite_ms -. eval_ms)
      end;
      j

let checked tr ~op expected j () =
  Trace.span tr ~op "check" (fun () -> Refcheck.same expected (Refcheck.of_wire_list (Client.answers j)))

let eval tr ~op c ~cold (i : input) () =
  (* leg times are integers, so T <= 240.xxxxx selects what T <= 240 does *)
  let program =
    if cold then Inputs.flights_program ~tmax:(Printf.sprintf "240.%05d" (op + 1)) ~cmax:"150" else program
  in
  let j =
    request tr ~op ~warm:(not cold) (fun () ->
        Client.eval c.conn ~tenant:c.tenant ~edb:i.edb ~pipeline:"pred,qrp" ~program ())
  in
  checked tr ~op i.expected j

let write tr ~op c v () =
  let retract, facts, expected = Inputs.next_write v.writes in
  let j =
    request tr ~op ~warm:false (fun () ->
        (if retract then Client.retract else Client.insert) c.conn ~tenant:c.tenant ~view:v.name ~facts ())
  in
  checked tr ~op expected j

let query tr ~op c v () =
  let expected = Inputs.current v.writes in
  let j = request tr ~op ~warm:false (fun () -> Client.query c.conn ~tenant:c.tenant ~view:v.name ()) in
  checked tr ~op expected j

let step t c tr =
  let op = (c.ops * clients) + c.idx in
  c.ops <- c.ops + 1;
  let pick a = a.(Random.State.int c.order (Array.length a)) in
  let r = Random.State.int c.order 100 in
  let cls, f =
    if r < cold_pct then (Measure.Cold, eval tr ~op c ~cold:true (pick t.inputs))
    else if r < cold_pct + write_pct then (Measure.Write, write tr ~op c (pick c.views))
    else if r < cold_pct + write_pct + query_pct then (Measure.Main, query tr ~op c (pick c.views))
    else (Measure.Main, eval tr ~op c ~cold:false (pick t.inputs))
  in
  Trace.span tr ~op "op" (fun () -> Measure.timed cls f)

(* ----- daemon lifecycle ----- *)

let daemon_exe () =
  Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin/cqlserved.exe"

let stop_daemon pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rec reap () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | exception Unix.Unix_error _ -> ()
  in
  reap ()

(* the daemon's cache and admission counters, from its stats op *)
let server_counters conn =
  match Client.stats conn with
  | Ok j ->
      let sub k f = Option.fold ~none:0. ~some:(fun o -> num o f) (Json.member k j) in
      let rejected =
        match Option.bind (Json.member "tenants" j) Json.to_list with
        | Some ts -> List.fold_left (fun acc t -> acc +. num t "rejected") 0. ts
        | None -> 0.
      in
      [
        ("serve.plan_hits", sub "plan_cache" "hits");
        ("serve.plan_misses", sub "plan_cache" "misses");
        ("serve.view_hits", sub "view_cache" "hits");
        ("serve.view_misses", sub "view_cache" "misses");
        ("serve.admission_rejects", rejected);
      ]
  | Error msg -> failwith ("stats: " ^ msg)

(* a view of a fresh network for the client's tenant; materializing it is a
   checked operation of set-up *)
let materialize conn ~tenant (n : Inputs.network) name =
  let writes = Inputs.writes n in
  let sample =
    Measure.timed Measure.Write (fun () ->
        let r =
          Client.materialize conn ~tenant ~view:name ~edb:(Inputs.legs_text n.legs) ~pipeline:"pred,qrp"
            ~program ()
        in
        fun () ->
          match r with
          | Ok j -> Client.is_ok j && Refcheck.same writes.base (Refcheck.of_wire_list (Client.answers j))
          | Error _ -> false)
  in
  ({ name; writes }, sample)

let setup ~seed =
  let st = Inputs.rng seed 1 in
  let network cities = Inputs.network st ~cities ~degree ~spare:1 ~time:leg_time ~cost:leg_cost in
  let inputs =
    Array.init warm_inputs (fun _ ->
        let n = network warm_cities in
        { edb = Inputs.legs_text n.legs; expected = Refcheck.flights ~tmax:240. ~cmax:150. n.legs })
  in
  let out = Filename.concat "perfbench" "out" in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let socket = Filename.concat out (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  let pid =
    Unix.create_process (daemon_exe ())
      [| "cqlserved"; "--socket"; socket; "--workers"; string_of_int workers |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  try
    let samples = ref [] in
    let connect idx =
      match Client.connect_retry ~attempts:2000 ~delay:0.005 socket with
      | Error msg -> failwith ("cannot reach cqlserved: " ^ msg)
      | Ok conn ->
          let tenant = Printf.sprintf "client%d" idx in
          let views =
            Array.init views_per_client (fun k ->
                let v, sample = materialize conn ~tenant (network view_cities) (Printf.sprintf "flights%d" k) in
                samples := sample :: !samples;
                v)
          in
          { idx; conn; tenant; views; order = Inputs.rng seed (10 + idx); ops = 0 }
    in
    let clients = Array.init clients connect in
    (* fill the plan cache and the daemon's interning tables: one pass over
       the distinct warm inputs *)
    let off = Trace.create ~on:false ~dom:0 in
    Array.iteri
      (fun i input ->
        samples := Measure.timed Measure.Main (eval off ~op:(-1 - i) clients.(0) ~cold:false input) :: !samples)
      inputs;
    { pid; inputs; clients; setup_samples = !samples }
  with e ->
    stop_daemon pid;
    raise e

let cold_samples t = t.setup_samples

let run t ~seconds ~trace =
  let before = server_counters t.clients.(0).conn in
  let domains =
    Array.map
      (fun c ->
        Domain.spawn (fun () ->
            let tr = Trace.create ~on:trace ~dom:c.idx in
            (Measure.closed_loop ~seconds (fun () -> step t c tr), tr)))
      t.clients
  in
  let results = Array.to_list (Array.map Domain.join domains) in
  let after = server_counters t.clients.(0).conn in
  let trs = List.map snd results in
  List.iter2 (fun (k, b) (_, a) -> Trace.add (List.hd trs) k (a -. b)) before after;
  (Measure.merge (List.map fst results), trs)

let peak_rss_mb t = Measure.peak_rss_mb (Some t.pid)

(* Times are reported as measured: a request's round trip is bound by
   wake-ups across two processes and four busy domains on two cores, not by
   the speed of one core, and the speed kernel's ratio would only add its
   own noise. *)
let speed_scaled = false

let teardown t =
  Array.iter (fun c -> Client.close c.conn) t.clients;
  stop_daemon t.pid
