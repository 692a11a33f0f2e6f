(* Tests for the query service layer (lib/serve): the JSON codec, the
   length-prefixed framing, the compiled-plan cache, admission control, and
   the daemon itself end to end over a real Unix-domain socket. *)

module Json = Cql_serve.Json
module Protocol = Cql_serve.Protocol
module Plan_cache = Cql_serve.Plan_cache
module Lru = Cql_serve.Lru
module Admission = Cql_serve.Admission
module Server = Cql_serve.Server
module Client = Cql_serve.Client
module Loadgen = Cql_serve.Loadgen
module Obs = Cql_obs.Obs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ----- JSON codec ----- *)

let roundtrip s =
  match Json.parse s with
  | Error msg -> Alcotest.failf "parse %S: %s" s msg
  | Ok j -> Json.to_string j

let test_json_roundtrip () =
  check_str "object" {|{"a": 1, "b": [true, null, -2.5], "c": "x"}|}
    (roundtrip {| { "a" :1, "b":[ true,null, -2.5 ] ,"c" : "x" } |});
  check_str "empty containers" {|{"a": [], "b": {}}|} (roundtrip {|{"a":[],"b":{}}|});
  check_str "negative int" "-42" (roundtrip "-42");
  check_str "exponent becomes float" "1500.0" (roundtrip "1.5e3");
  check_str "escapes" {|"a\"b\\c\nd"|} (roundtrip {|"a\"b\\c\nd"|})

let test_json_unicode () =
  (* é is two UTF-8 bytes; the surrogate pair 😀 is four *)
  (match Json.parse {|"café"|} with
  | Ok (Json.Str s) -> check_str "BMP escape" "caf\xc3\xa9" s
  | _ -> Alcotest.fail "BMP escape");
  (match Json.parse {|"😀"|} with
  | Ok (Json.Str s) -> check_str "surrogate pair" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "surrogate pair");
  (* control characters print as \u escapes *)
  check_str "control chars escaped" {|"a\u0001b"|} (Json.to_string (Json.Str "a\x01b"))

let test_json_errors () =
  let fails s =
    match Json.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected a parse error for %S" s
  in
  fails "";
  fails "{";
  fails {|{"a" 1}|};
  fails "[1,]";
  fails "truex";
  fails "1 2";
  (* trailing content *)
  fails {|"unterminated|};
  (* the error names the byte offset *)
  match Json.parse "[1, x]" with
  | Error msg -> check_bool "offset in message" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected error"

let nested_brackets k = String.make k '[' ^ String.make k ']'

let test_json_depth () =
  check_bool "64 nested arrays parse" true (Result.is_ok (Json.parse (nested_brackets 64)));
  check_bool "65 nested arrays are an error" true
    (Result.is_error (Json.parse (nested_brackets 65)));
  let objects k =
    String.concat "" (List.init k (fun _ -> {|{"a": |})) ^ "1" ^ String.make k '}'
  in
  check_bool "64 nested objects parse" true (Result.is_ok (Json.parse (objects 64)));
  check_bool "65 nested objects are an error" true (Result.is_error (Json.parse (objects 65)));
  check_bool "100,000 nested brackets are an error" true
    (Result.is_error (Json.parse (nested_brackets 100_000)))

let test_json_accessors () =
  let j = Result.get_ok (Json.parse {|{"a": 7, "b": "x", "c": [1], "d": 2.0}|}) in
  check_bool "member hit" true (Json.member "a" j = Some (Json.Int 7));
  check_bool "member miss" true (Json.member "z" j = None);
  check_bool "to_int" true (Option.bind (Json.member "a" j) Json.to_int = Some 7);
  check_bool "to_int of integral float" true
    (Option.bind (Json.member "d" j) Json.to_int = Some 2);
  check_bool "to_str" true (Option.bind (Json.member "b" j) Json.to_str = Some "x");
  check_bool "to_list" true
    (Option.bind (Json.member "c" j) Json.to_list = Some [ Json.Int 1 ])

let test_json_float_printing () =
  (* shortest decimal that parses back to the same float — no %.12g
     truncation (0.1 +. 0.2 must not echo as 0.3) *)
  check_str "tenth" "0.1" (Json.to_string (Json.Float 0.1));
  check_str "sum of tenths keeps the ulp" "0.30000000000000004"
    (Json.to_string (Json.Float (0.1 +. 0.2)));
  check_bool "and is not 0.3" true
    (Json.to_string (Json.Float (0.1 +. 0.2)) <> Json.to_string (Json.Float 0.3));
  (* integral floats inside the safe range keep the "x.0" form *)
  check_str "integral float form" "3.0" (Json.to_string (Json.Float 3.0));
  check_str "negative integral" "-2.0" (Json.to_string (Json.Float (-2.0)));
  (* every float round-trips bit-exactly through print + parse *)
  List.iter
    (fun f ->
      match Json.parse (Json.to_string (Json.Float f)) with
      | Ok (Json.Float g) ->
          check_bool (Printf.sprintf "roundtrip %h" f) true (Int64.bits_of_float g = Int64.bits_of_float f)
      | Ok (Json.Int i) ->
          (* huge integral floats may print in exponent-free integer form *)
          check_bool (Printf.sprintf "roundtrip %h as int" f) true (float_of_int i = f)
      | _ -> Alcotest.failf "roundtrip %h failed to parse" f)
    [
      0.1; 0.2; 0.1 +. 0.2; 1.5e3; 5e-324; 1.7976931348623157e308; 1e100;
      9007199254740992.0; 9.007199254740993e15; 1.0 /. 3.0; -0.001;
    ]

let test_json_int_bounds () =
  let two53 = 9007199254740992.0 in
  check_bool "Int passes through" true (Json.to_int_checked (Json.Int max_int) = Ok max_int);
  check_bool "integral float below 2^53" true
    (Json.to_int_checked (Json.Float (two53 -. 1.0)) = Ok 9007199254740991);
  check_bool "negative integral float below 2^53" true
    (Json.to_int_checked (Json.Float (-.two53 +. 1.0)) = Ok (-9007199254740991));
  (* at 2^53 doubles stop representing every integer: reject, don't round *)
  check_bool "2^53 rejected" true
    (Json.to_int_checked (Json.Float two53) = Error Json.Unsafe_integer);
  check_bool "-2^53 rejected" true
    (Json.to_int_checked (Json.Float (-.two53)) = Error Json.Unsafe_integer);
  check_bool "beyond 2^53 rejected" true
    (Json.to_int_checked (Json.Float 1e100) = Error Json.Unsafe_integer);
  check_bool "fractional rejected" true
    (Json.to_int_checked (Json.Float 2.5) = Error Json.Not_an_integer);
  check_bool "non-number rejected" true
    (Json.to_int_checked (Json.Str "7") = Error Json.Not_an_integer);
  (* the option squash loses only the reason *)
  check_bool "to_int squash ok" true (Json.to_int (Json.Float 7.0) = Some 7);
  check_bool "to_int squash err" true (Json.to_int (Json.Float two53) = None)

(* ----- framing ----- *)

let string_reader ?max_frame s =
  let pos = ref 0 in
  Protocol.reader ?max_frame (fun buf off len ->
      let n = min len (String.length s - !pos) in
      Bytes.blit_string s !pos buf off n;
      pos := !pos + n;
      n)

let test_frame_roundtrip () =
  let b = Buffer.create 64 in
  Protocol.write_frame b (Json.Obj [ ("op", Json.Str "ping") ]);
  Protocol.write_frame b (Json.Obj [ ("op", Json.Str "stats") ]);
  let r = string_reader (Buffer.contents b) in
  (match Protocol.read_frame r with
  | Ok payload -> check_bool "first frame" true (Json.parse payload = Ok (Json.Obj [ ("op", Json.Str "ping") ]))
  | Error _ -> Alcotest.fail "first frame");
  (match Protocol.read_frame r with
  | Ok payload -> check_bool "second frame" true (Json.parse payload = Ok (Json.Obj [ ("op", Json.Str "stats") ]))
  | Error _ -> Alcotest.fail "second frame");
  check_bool "clean EOF" true (Protocol.read_frame r = Error Protocol.Closed)

let test_frame_bad_header () =
  let r = string_reader "notanumber\n{}\n" in
  (match Protocol.read_frame r with
  | Error (Protocol.Bad_header _) -> ()
  | _ -> Alcotest.fail "expected Bad_header");
  (* a huge decimal that never terminates is rejected, not buffered forever *)
  let r = string_reader (String.make 64 '1') in
  match Protocol.read_frame r with
  | Error (Protocol.Bad_header _) -> ()
  | _ -> Alcotest.fail "expected Bad_header for an unterminated header"

let test_frame_truncated () =
  let r = string_reader "100\n{\"op\": \"ping\"}\n" in
  (match Protocol.read_frame r with
  | Error Protocol.Truncated -> ()
  | _ -> Alcotest.fail "expected Truncated (payload shorter than declared)");
  let r = string_reader "12" in
  match Protocol.read_frame r with
  | Error Protocol.Truncated -> ()
  | _ -> Alcotest.fail "expected Truncated (EOF inside header)"

let test_frame_too_large () =
  let b = Buffer.create 64 in
  Protocol.write_frame b (Json.Str (String.make 100 'x'));
  let r = string_reader ~max_frame:16 (Buffer.contents b) in
  match Protocol.read_frame r with
  | Error (Protocol.Too_large n) -> check_bool "declared length reported" true (n > 16)
  | _ -> Alcotest.fail "expected Too_large"

(* ----- request decoding ----- *)

let test_request_of_json () =
  let decode s = Protocol.request_of_json (Result.get_ok (Json.parse s)) in
  (match decode {|{"op": "eval", "program": "p(1)."}|} with
  | Ok (Protocol.Eval e) ->
      check_str "default tenant" "anon" e.tenant;
      check_str "default pipeline" "pred,qrp" e.pipeline;
      check_str "program" "p(1)." e.program;
      check_bool "no view" true (e.view = None);
      check_bool "no budgets" true (e.max_iterations = None && e.max_derivations = None)
  | _ -> Alcotest.fail "eval defaults");
  (match decode {|{"op": "eval", "program": "p.", "max_derivations": 9, "id": "r1"}|} with
  | Ok (Protocol.Eval e) ->
      check_bool "budget" true (e.max_derivations = Some 9);
      check_bool "id" true (e.id = Some "r1")
  | _ -> Alcotest.fail "eval fields");
  check_bool "ping" true (decode {|{"op": "ping"}|} = Ok (Protocol.Ping { id = None }));
  check_bool "unknown op rejected" true (Result.is_error (decode {|{"op": "nope"}|}));
  check_bool "missing program rejected" true (Result.is_error (decode {|{"op": "eval"}|}));
  check_bool "non-object rejected" true (Result.is_error (decode "[1]"));
  (match decode {|{"op": "materialize", "view": "v", "program": "p(1).", "tenant": "a"}|} with
  | Ok (Protocol.Eval m) ->
      Alcotest.(check (option string)) "view name" (Some "v") m.view;
      check_str "materialize tenant" "a" m.tenant;
      check_str "materialize pipeline default" "pred,qrp" m.pipeline
  | _ -> Alcotest.fail "materialize decoding");
  check_bool "materialize needs a view" true
    (Result.is_error (decode {|{"op": "materialize", "program": "p(1)."}|}));
  (match decode {|{"op": "retract", "view": "v", "facts": "p(1).", "max_iterations": 3}|} with
  | Ok (Protocol.Update u) ->
      check_bool "retract flag" true u.retract;
      check_str "update facts" "p(1)." u.facts;
      check_bool "update budget" true (u.max_iterations = Some 3)
  | _ -> Alcotest.fail "retract decoding");
  (match decode {|{"op": "insert", "view": "v", "facts": "p(2)."}|} with
  | Ok (Protocol.Update u) -> check_bool "insert flag" true (not u.retract)
  | _ -> Alcotest.fail "insert decoding");
  check_bool "insert needs facts" true
    (Result.is_error (decode {|{"op": "insert", "view": "v"}|}));
  (match decode {|{"op": "query", "view": "v"}|} with
  | Ok (Protocol.Query q) ->
      check_str "query view" "v" q.view;
      check_str "query default tenant" "anon" q.tenant
  | _ -> Alcotest.fail "query decoding");
  (* the constraint domain: absent means rationals, "int" selects ℤ *)
  (match decode {|{"op": "eval", "program": "p(1)."}|} with
  | Ok (Protocol.Eval e) -> check_bool "default domain" true (e.domain = Cql_constr.Cdomain.Q)
  | _ -> Alcotest.fail "eval default domain");
  (match decode {|{"op": "eval", "program": "p(1).", "domain": "int"}|} with
  | Ok (Protocol.Eval e) -> check_bool "int domain" true (e.domain = Cql_constr.Cdomain.Z)
  | _ -> Alcotest.fail "eval int domain");
  (match decode {|{"op": "materialize", "view": "v", "program": "p(1).", "domain": "rat"}|} with
  | Ok (Protocol.Eval m) ->
      Alcotest.(check (option string)) "materialize view" (Some "v") m.view;
      check_bool "materialize rat domain" true (m.domain = Cql_constr.Cdomain.Q)
  | _ -> Alcotest.fail "materialize domain");
  check_bool "unknown domain rejected" true
    (Result.is_error (decode {|{"op": "eval", "program": "p(1).", "domain": "mod7"}|}));
  check_bool "non-string domain rejected" true
    (Result.is_error (decode {|{"op": "eval", "program": "p(1).", "domain": 1}|}));
  (* the request builders emit the field only when it is given *)
  let built = Protocol.eval_request_json ~domain:Cql_constr.Cdomain.Z ~program:"p(1)." () in
  check_bool "builder emits domain" true
    (Json.member "domain" built = Some (Json.Str "int"));
  let built_default = Protocol.eval_request_json ~program:"p(1)." () in
  check_bool "builder omits default domain" true (Json.member "domain" built_default = None);
  match Protocol.request_of_json built with
  | Ok (Protocol.Eval e) -> check_bool "builder roundtrip" true (e.domain = Cql_constr.Cdomain.Z)
  | _ -> Alcotest.fail "builder roundtrip"

(* ----- plan cache (an Lru of plans) ----- *)

let dummy_plan pipeline =
  let program = Cql_datalog.Parser.program_of_string "p(1)." in
  {
    Plan_cache.pipeline;
    program;
    programs = Cql_eval.Engine.compile_plans program;
    source_bytes = 5;
    rewrite_ns = 0L;
  }

let test_plan_cache_lru () =
  let c = Lru.create ~name:"serve.plan_cache" ~max_entries:2 in
  let k p = Plan_cache.key ~pipeline:"none" ~domain:Cql_constr.Cdomain.Q ~source:p in
  check_bool "distinct sources, distinct keys" true (k "a" <> k "b");
  check_bool "pipeline part of the key" true
    (Plan_cache.key ~pipeline:"none" ~domain:Cql_constr.Cdomain.Q ~source:"a"
    <> Plan_cache.key ~pipeline:"optimal" ~domain:Cql_constr.Cdomain.Q ~source:"a");
  check_bool "domain part of the key" true
    (Plan_cache.key ~pipeline:"none" ~domain:Cql_constr.Cdomain.Q ~source:"a"
    <> Plan_cache.key ~pipeline:"none" ~domain:Cql_constr.Cdomain.Z ~source:"a");
  let s0 = Lru.stats c in
  check_bool "cold miss" true (Lru.find c (k "a") = None);
  check_bool "a fresh key displaces nothing" true (Lru.add c (k "a") (dummy_plan "none") = []);
  check_bool "hit after add" true (Lru.find c (k "a") <> None);
  let b = dummy_plan "none" in
  ignore (Lru.add c (k "b") b);
  (* touch a so b is the least recently used *)
  ignore (Lru.find c (k "a"));
  let evicted = Lru.add c (k "c") (dummy_plan "none") in
  check_int "capacity held" 2 (Lru.size c);
  check_bool "LRU entry evicted" true (Lru.find c (k "b") = None);
  check_bool "recently used entry kept" true (Lru.find c (k "a") <> None);
  let s1 = Lru.stats c in
  check_int "evictions counted" 1 (s1.Lru.evictions - s0.Lru.evictions);
  check_int "hits counted" 3 (s1.Lru.hits - s0.Lru.hits);
  check_int "misses counted" 2 (s1.Lru.misses - s0.Lru.misses);
  (* the displaced values come back, so a cache of live views can close them *)
  check_bool "add hands back the evicted value" true
    (match evicted with [ v ] -> v == b | _ -> false);
  let c1 = dummy_plan "optimal" in
  let c2 = dummy_plan "optimal" in
  ignore (Lru.add c (k "c") c1);
  check_bool "add hands back the replaced value" true
    (match Lru.add c (k "c") c2 with [ v ] -> v == c1 | _ -> false);
  check_bool "the later insert wins" true
    (match Lru.find c (k "c") with Some v -> v == c2 | None -> false);
  check_int "replacing is not evicting" 2 (Lru.size c);
  check_bool "remove hands back the value" true
    (match Lru.remove c (k "c") with Some v -> v == c2 | None -> false);
  check_bool "removed entry gone" true (Lru.find c (k "c") = None);
  check_bool "removing an absent key" true (Lru.remove c (k "c") = None);
  check_int "remove shrinks" 1 (Lru.size c);
  check_int "neither replacing nor removing counts an eviction" 1
    ((Lru.stats c).Lru.evictions - s0.Lru.evictions)

(* ----- admission control ----- *)

let test_admission () =
  let adm =
    Admission.create
      {
        Admission.max_program_bytes = 100;
        max_inflight_per_tenant = 2;
        max_derivations = 1000;
        max_iterations = 10;
      }
  in
  let admit ?mi ?md ?(tenant = "t") bytes =
    Admission.admit adm ~tenant ~program_bytes:bytes ~max_iterations:mi ~max_derivations:md
  in
  (* rejections first: none of these occupy an inflight slot *)
  (match admit 101 with
  | Admission.Reject_oversized _ -> ()
  | _ -> Alcotest.fail "oversized program");
  (match admit ~md:1001 50 with
  | Admission.Reject_budget _ -> ()
  | _ -> Alcotest.fail "over-cap derivations");
  (match admit ~mi:11 50 with
  | Admission.Reject_budget _ -> ()
  | _ -> Alcotest.fail "over-cap iterations");
  (match admit 50 with
  | Admission.Admit { max_iterations; max_derivations } ->
      check_int "iterations default to the cap" 10 max_iterations;
      check_int "derivations default to the cap" 1000 max_derivations
  | _ -> Alcotest.fail "should admit");
  (match admit ~mi:5 ~md:99 50 with
  | Admission.Admit { max_iterations; max_derivations } ->
      check_int "requested iterations kept" 5 max_iterations;
      check_int "requested derivations kept" 99 max_derivations
  | _ -> Alcotest.fail "should admit under-cap budgets");
  (* two admitted and not released: the third concurrent request is busy *)
  (match admit 50 with
  | Admission.Reject_busy _ -> ()
  | _ -> Alcotest.fail "inflight cap");
  Admission.release adm ~tenant:"t";
  (match admit 50 with
  | Admission.Admit _ -> ()
  | _ -> Alcotest.fail "slot freed by release");
  (* other tenants have their own slots *)
  match admit ~tenant:"u" 50 with
  | Admission.Admit _ -> ()
  | _ -> Alcotest.fail "per-tenant isolation"

(* clients choose tenant names: a stream of new names must not grow the
   table or the counter registry *)
let test_admission_tenant_rows () =
  let adm = Admission.create Admission.default_limits in
  let admit tenant =
    Admission.admit adm ~tenant ~program_bytes:10 ~max_iterations:None ~max_derivations:None
  in
  let counters = List.length (Obs.counters ()) in
  (* a tenant at its in-flight cap before the stream *)
  let cap = Admission.default_limits.Admission.max_inflight_per_tenant in
  for _ = 1 to cap do
    match admit "busy" with Admission.Admit _ -> () | _ -> Alcotest.fail "busy should admit"
  done;
  for i = 1 to 3_000 do
    let tenant = Printf.sprintf "tenant-%d" i in
    (match admit tenant with
    | Admission.Admit _ -> ()
    | _ -> Alcotest.failf "%s rejected" tenant);
    Admission.release adm ~tenant
  done;
  check_int "no counter per tenant" counters (List.length (Obs.counters ()));
  let rows = Admission.tenants adm in
  check_bool "at most 1,024 rows" true (List.length rows <= 1_024);
  (* rows with requests in flight are kept, so the cap still holds *)
  check_bool "the busy row is kept" true
    (List.exists
       (fun (r : Admission.tenant_stats) ->
         r.Admission.tenant = "busy" && r.Admission.inflight = cap && r.Admission.served = cap)
       rows);
  match admit "busy" with
  | Admission.Reject_busy _ -> ()
  | _ -> Alcotest.fail "the in-flight cap outlived the dropped rows"

(* ----- load-generator percentiles ----- *)

(* nearest rank: of 100 sorted samples, p50 is the 50th and p99 the 99th *)
let test_loadgen_percentile () =
  let ms xs = Array.map (fun m -> Int64.of_int (m * 1_000_000)) xs in
  let sorted = ms (Array.init 100 (fun i -> i + 1)) in
  let check_ms name want got = Alcotest.(check (float 1e-9)) name want got in
  check_ms "p50 of 1..100" 50.0 (Loadgen.percentile sorted 50);
  check_ms "p95 of 1..100" 95.0 (Loadgen.percentile sorted 95);
  check_ms "p99 of 1..100" 99.0 (Loadgen.percentile sorted 99);
  check_ms "p100 is the maximum" 100.0 (Loadgen.percentile sorted 100);
  List.iter
    (fun p ->
      check_ms (Printf.sprintf "p%d of one sample" p) 7.0 (Loadgen.percentile (ms [| 7 |]) p))
    [ 0; 50; 99; 100 ];
  check_ms "no samples" 0.0 (Loadgen.percentile [||] 50)

(* ----- the daemon end to end ----- *)

let test_socket name = Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "cql-test-%s-%d.sock" name (Unix.getpid ()))

let with_server ?(configure = Fun.id) name f =
  let socket = test_socket name in
  let t = Server.start (configure (Server.default_config ~socket_path:socket)) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Server.wait t)
    (fun () -> f socket t)

let with_client socket f =
  match Client.connect_retry socket with
  | Error msg -> Alcotest.failf "connect %s: %s" socket msg
  | Ok c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let ex41_program =
  {|
r1: q(X) :- p1(X, Y), p2(Y), X + Y <= 6, X >= 2.
r2: p1(X, Y) :- b1(X, Y).
r3: p2(X) :- b2(X).
#query q.
|}

let ex41_edb = "b1(2, 1). b1(2, 4). b1(3, 3). b1(5, 1).\nb2(1). b2(2). b2(3). b2(4)."

let test_server_cache_miss_then_hit () =
  with_server "cache" (fun socket _ ->
      with_client socket (fun c ->
          let hits = Obs.counter "serve.plan_cache.hits" in
          let h0 = Obs.value hits in
          let r1 = Result.get_ok (Client.eval c ~edb:ex41_edb ~program:ex41_program ()) in
          check_bool "first response ok" true (Client.is_ok r1);
          check_bool "first is a miss" true
            (Option.bind (Json.member "cache" r1) Json.to_str = Some "miss");
          check_bool "rewrite timed on the miss" true
            (match Option.bind (Json.member "rewrite_ms" r1) Json.to_bool with
            | Some _ -> false
            | None -> Json.member "rewrite_ms" r1 <> None);
          let r2 = Result.get_ok (Client.eval c ~edb:ex41_edb ~program:ex41_program ()) in
          check_bool "second is a hit" true
            (Option.bind (Json.member "cache" r2) Json.to_str = Some "hit");
          (* the acceptance check: the repeat query skipped the rewrite,
             observable through the plan-cache hit counter *)
          check_int "plan-cache hit counter advanced" 1 (Obs.value hits - h0);
          check_bool "answers stable across hit and miss" true
            (Client.answers r1 = Client.answers r2);
          check_bool "some answers" true (Client.answers r1 <> [])))

let test_server_parse_error () =
  with_server "parse" (fun socket _ ->
      with_client socket (fun c ->
          let r = Result.get_ok (Client.eval c ~program:"q(X :- p(X)." ()) in
          check_bool "error response" true (not (Client.is_ok r));
          check_bool "structured kind" true (Client.error_kind r = Some "parse_error");
          let msg = Option.value (Client.error_message r) ~default:"" in
          (* the parser's token/position diagnostics survive the wire *)
          check_bool "message carries position info" true
            (String.length msg > 0
            && (let has sub =
                  let n = String.length sub in
                  let rec go i =
                    i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
                  in
                  go 0
                in
                has "line" || has "character" || has "token"));
          (* a bad EDB is a parse error too, and the connection survives *)
          let r = Result.get_ok (Client.eval c ~program:"q(1)." ~edb:"nope(" ()) in
          check_bool "edb parse error" true (Client.error_kind r = Some "parse_error");
          check_bool "connection still usable" true
            (Client.is_ok (Result.get_ok (Client.ping c)))))

let test_server_admission_and_budget () =
  with_server "limits"
    ~configure:(fun c ->
      {
        c with
        Server.limits =
          {
            Admission.max_program_bytes = 4096;
            max_inflight_per_tenant = 2;
            max_derivations = 1000;
            max_iterations = 50;
          };
      })
    (fun socket _ ->
      with_client socket (fun c ->
          (* asking for more than the server cap is rejected up front *)
          let r =
            Result.get_ok
              (Client.eval c ~max_derivations:100_000 ~program:"q(1).\n#query q." ())
          in
          check_bool "over-cap budget rejected" true (Client.error_kind r = Some "admission");
          (* a run the budget truncates is a budget error, not partial answers *)
          let recursive =
            "r1: t(X, Y) :- e(X, Y).\nr2: t(X, Y) :- t(X, Z), e(Z, Y).\n#query t."
          in
          let chain =
            String.concat " " (List.init 8 (fun i -> Printf.sprintf "e(%d, %d)." i (i + 1)))
          in
          let r =
            Result.get_ok
              (Client.eval c ~pipeline:"none" ~max_iterations:1 ~edb:chain ~program:recursive
                 ())
          in
          check_bool "truncated run is a budget error" true
            (Client.error_kind r = Some "budget");
          check_bool "no partial answers" true (Client.answers r = []);
          (* oversized program *)
          let big = "q(1)." ^ String.make 5000 ' ' in
          let r = Result.get_ok (Client.eval c ~program:big ()) in
          check_bool "oversized program rejected" true
            (Client.error_kind r = Some "oversized")))

let test_server_stats_and_queryless () =
  with_server "stats" (fun socket _ ->
      with_client socket (fun c ->
          check_bool "ping" true (Client.is_ok (Result.get_ok (Client.ping c)));
          (* a query-less program falls back to the identity pipeline *)
          let r = Result.get_ok (Client.eval c ~tenant:"alice" ~program:"p(1). p(2)." ()) in
          check_bool "queryless ok" true (Client.is_ok r);
          check_bool "pipeline recorded as none" true
            (Option.bind (Json.member "pipeline" r) Json.to_str = Some "none");
          let s = Result.get_ok (Client.stats c) in
          check_bool "stats ok" true (Client.is_ok s);
          let member path j =
            List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path
          in
          check_bool "requests counted" true
            (match Option.bind (member [ "server"; "requests" ] s) Json.to_int with
            | Some n -> n >= 2
            | None -> false);
          check_bool "tenant row present" true
            (match Option.bind (member [ "tenants" ] s) Json.to_list with
            | Some rows ->
                List.exists
                  (fun row -> Option.bind (Json.member "tenant" row) Json.to_str = Some "alice")
                  rows
            | None -> false)))

let test_server_malformed_frames () =
  with_server "malformed" (fun socket _ ->
      (* raw socket: drive the framing layer directly *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let send s = ignore (Unix.write_substring fd s 0 (String.length s)) in
          let r = Protocol.reader (fun buf off len -> Unix.read fd buf off len) in
          (* garbage header: one malformed error response, then close *)
          send "notanumber\n";
          (match Protocol.read_frame r with
          | Ok payload ->
              let j = Result.get_ok (Json.parse payload) in
              check_bool "malformed frame reported" true
                (Option.bind (Json.member "error" j)
                   (fun e -> Option.bind (Json.member "kind" e) Json.to_str)
                = Some "malformed")
          | Error e -> Alcotest.failf "expected a response, got %s" (Protocol.frame_error_to_string e));
          check_bool "connection closed after bad header" true
            (Protocol.read_frame r = Error Protocol.Closed));
      (* unparseable or too deeply nested JSON in a well-formed frame:
         structured error, stream keeps going *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let send s = ignore (Unix.write_substring fd s 0 (String.length s)) in
          let r = Protocol.reader (fun buf off len -> Unix.read fd buf off len) in
          let malformed payload =
            send (Printf.sprintf "%d\n%s\n" (String.length payload + 1) payload);
            match Protocol.read_frame r with
            | Ok resp ->
                let j = Result.get_ok (Json.parse resp) in
                if Client.error_kind j = Some "malformed" then Client.error_message j else None
            | Error e ->
                Alcotest.failf "expected a response, got %s" (Protocol.frame_error_to_string e)
          in
          check_bool "bad JSON is a malformed response" true
            (malformed "{\"op\": \"eval\",}" <> None);
          check_bool "100,000 nested brackets are refused by the depth bound" true
            (match malformed (nested_brackets 100_000) with
            | Some msg ->
                let rec has i =
                  i + 7 <= String.length msg && (String.sub msg i 7 = "nesting" || has (i + 1))
                in
                has 0
            | None -> false);
          (* the same connection still answers a valid request *)
          let b = Buffer.create 64 in
          Protocol.write_frame b (Protocol.ping_request_json ());
          send (Buffer.contents b);
          match Protocol.read_frame r with
          | Ok resp ->
              let j = Result.get_ok (Json.parse resp) in
              check_bool "connection survives bad JSON" true
                (Option.bind (Json.member "status" j) Json.to_str = Some "ok")
          | Error e -> Alcotest.failf "expected pong, got %s" (Protocol.frame_error_to_string e)))

let test_server_oversized_frame () =
  with_server "bigframe"
    ~configure:(fun c -> { c with Server.max_frame_bytes = 256 })
    (fun socket _ ->
      with_client socket (fun c ->
          (* the whole frame blows the transport limit before admission sees it *)
          match Client.eval c ~program:(String.make 1024 ' ') () with
          | Ok r -> check_bool "oversized frame" true (Client.error_kind r = Some "oversized")
          | Error _ ->
              (* the server may close after the framing error before the
                 response is read; either way it must not crash *)
              ()))

let test_server_shutdown_drains () =
  let socket = test_socket "drain" in
  let t = Server.start (Server.default_config ~socket_path:socket) in
  with_client socket (fun c ->
      (* a request already on the wire when stop lands still gets answered *)
      let fd_response =
        let j = Result.get_ok (Client.eval c ~edb:ex41_edb ~program:ex41_program ()) in
        check_bool "pre-stop request ok" true (Client.is_ok j);
        Server.stop t;
        (* the next request races the drain: it must get either a normal
           answer or a structured shutting_down error, never a broken pipe *)
        match Client.eval c ~edb:ex41_edb ~program:ex41_program () with
        | Ok j -> Client.is_ok j || Client.error_kind j = Some "shutting_down"
        | Error _ -> true (* connection already drained and closed: also clean *)
      in
      check_bool "in-flight drain" true fd_response);
  Server.wait t;
  check_bool "socket unlinked after drain" false (Sys.file_exists socket);
  check_bool "new connections refused" true (Result.is_error (Client.connect socket))

let test_server_concurrent_clients () =
  with_server "concurrent" (fun socket _ ->
      let expected =
        with_client socket (fun c ->
            Client.answers (Result.get_ok (Client.eval c ~edb:ex41_edb ~program:ex41_program ())))
      in
      let domains =
        Array.init 4 (fun i ->
            Domain.spawn (fun () ->
                with_client socket (fun c ->
                    List.init 5 (fun _ ->
                        let r =
                          Result.get_ok
                            (Client.eval c
                               ~tenant:(Printf.sprintf "tenant%d" i)
                               ~edb:ex41_edb ~program:ex41_program ())
                        in
                        Client.is_ok r && Client.answers r = expected))))
      in
      Array.iter
        (fun d -> check_bool "every concurrent response correct" true
            (List.for_all Fun.id (Domain.join d)))
        domains)

(* One worker and more clients than that: connections wait in the listen
   backlog and are served in turn.  A stop drains the one being served,
   and a client still waiting in the backlog then fails instead of
   hanging. *)
let test_server_more_clients_than_workers () =
  with_server "backlog" ~configure:(fun c -> { c with Server.workers = 1 }) (fun socket t ->
      let connect () =
        match Client.connect_retry socket with
        | Ok c -> c
        | Error msg -> Alcotest.failf "connect %s: %s" socket msg
      in
      let eval c = Client.eval c ~edb:ex41_edb ~program:ex41_program () in
      (* all three are connected before any sends: two of them wait *)
      let replies =
        List.init 3 (fun _ -> connect ())
        |> List.map (fun c ->
               Domain.spawn (fun () ->
                   Fun.protect ~finally:(fun () -> Client.close c) (fun () -> eval c)))
        |> List.map Domain.join
      in
      let answers = function Ok r when Client.is_ok r -> Client.answers r | _ -> [] in
      check_bool "every client answered" true
        (List.for_all (fun r -> answers r <> [] && answers r = answers (List.hd replies)) replies);
      check_int "three connections served" 3 (Server.connections_served t);
      (* the worker is busy with [served] while [waiting] sits in the backlog *)
      let served = connect () in
      check_bool "served client answered" true (Result.is_ok (Client.ping served));
      let waiting = connect () in
      let request = Domain.spawn (fun () -> eval waiting) in
      Server.stop t;
      Server.wait t;
      check_bool "socket unlinked" false (Sys.file_exists socket);
      check_bool "the waiting client's request fails" true
        (Result.is_error (Domain.join request));
      check_int "the waiting client was never accepted" 4 (Server.connections_served t);
      Client.close served;
      Client.close waiting)

(* The wire as every client sees it: request bytes, reply key orders and
   budget messages.  Eval and materialize share a request record, its
   encoder and a handler, so only pinned values catch a change made to
   both sides at once. *)
let test_server_wire () =
  let program = "q(X) :- b(X). #query q." in
  check_str "materialize request bytes"
    {|{"id": "r1", "max_derivations": 9, "max_iterations": 3, "domain": "int", "pipeline": "optimal", "edb": "b(1).", "tenant": "t", "op": "materialize", "view": "v", "program": "q(X) :- b(X). #query q."}|}
    (Json.to_string
       (Protocol.eval_request_json ~id:"r1" ~tenant:"t" ~view:"v" ~edb:"b(1)." ~pipeline:"optimal"
          ~domain:Cql_constr.Cdomain.Z ~max_iterations:3 ~max_derivations:9 ~program ()));
  check_str "eval request bytes"
    {|{"id": "r1", "max_derivations": 9, "max_iterations": 3, "domain": "int", "pipeline": "optimal", "edb": "b(1).", "tenant": "t", "op": "eval", "program": "q(X) :- b(X). #query q."}|}
    (Json.to_string
       (Protocol.eval_request_json ~id:"r1" ~tenant:"t" ~edb:"b(1)." ~pipeline:"optimal"
          ~domain:Cql_constr.Cdomain.Z ~max_iterations:3 ~max_derivations:9 ~program ()));
  with_server "wire" (fun _ t ->
      let program = "q(X) :- b(X), X <= 3. #query q." in
      let respond ?view ?max_derivations () =
        Server.respond t
          (Json.to_string
             (Protocol.eval_request_json ?view ?max_derivations ~edb:"b(1). b(5)." ~program ()))
      in
      let keys = function Json.Obj kvs -> String.concat "," (List.map fst kvs) | _ -> "" in
      let message = Alcotest.(check (option string)) in
      let r = respond () in
      check_str "eval reply keys"
        "status,tenant,cache,pipeline,domain,query,answers,stats,rewrite_ms,eval_ms" (keys r);
      check_bool "eval answers" true (Client.answers r = [ "q(1)" ]);
      let r = respond ~view:"v" () in
      check_str "materialize reply keys"
        "status,tenant,view,cache,pipeline,domain,query,answers,facts,maintain,rewrite_ms,eval_ms"
        (keys r);
      check_bool "materialize answers" true (Client.answers r = [ "q(1)" ]);
      message "eval budget message"
        (Some "evaluation truncated by its budget after 1 iterations / 1 derivations")
        (Client.error_message (respond ~max_derivations:1 ()));
      message "materialize budget message"
        (Some
           "materialization truncated by its budget after 1 iterations / 1 derivations; the \
            view was not cached")
        (Client.error_message (respond ~view:"w" ~max_derivations:1 ()));
      let r = Server.respond t {|{"op": "materialize", "program": "q(1)."}|} in
      check_bool "materialize without a view is malformed" true
        (Client.error_kind r = Some "malformed");
      message "missing view message" (Some {|materialize request is missing "view"|})
        (Client.error_message r))

(* ----- materialized views over the socket ----- *)

let tc_program = "r1: t(X, Y) :- e(X, Y).\nr2: t(X, Y) :- t(X, Z), e(Z, Y).\n#query t."

let test_server_view_lifecycle () =
  with_server "views" (fun socket _ ->
      with_client socket (fun c ->
          (* a view must be materialized before it can be updated or read *)
          let r = Result.get_ok (Client.query c ~view:"tc" ()) in
          check_bool "query before materialize" true
            (Client.error_kind r = Some "unknown_view");
          let r =
            Result.get_ok (Client.insert c ~view:"tc" ~facts:"e(9, 10)." ())
          in
          check_bool "insert before materialize" true
            (Client.error_kind r = Some "unknown_view");
          (* the oracle: after every update the view's answers must equal a
             fresh one-shot eval of the same program over the current EDB *)
          let edb = ref [ "e(0, 1)."; "e(1, 2)."; "e(2, 3)." ] in
          let scratch () =
            let r =
              Result.get_ok
                (Client.eval c ~pipeline:"none" ~edb:(String.concat " " !edb)
                   ~program:tc_program ())
            in
            check_bool "one-shot eval ok" true (Client.is_ok r);
            Client.answers r
          in
          let r =
            Result.get_ok
              (Client.materialize c ~view:"tc" ~pipeline:"none"
                 ~edb:(String.concat " " !edb) ~program:tc_program ())
          in
          check_bool "materialize ok" true (Client.is_ok r);
          check_bool "materialize answers = one-shot eval" true
            (Client.answers r = scratch ());
          (* interleave inserts, retractions, queries and plain evals *)
          edb := "e(3, 4)." :: !edb;
          let r = Result.get_ok (Client.insert c ~view:"tc" ~facts:"e(3, 4)." ()) in
          check_bool "insert ok" true (Client.is_ok r);
          check_bool "insert answers = one-shot eval" true (Client.answers r = scratch ());
          check_bool "insert reports maintenance stats" true
            (match Json.member "maintain" r with
            | Some (Json.Obj kvs) -> List.mem_assoc "inserted" kvs
            | _ -> false);
          edb := List.filter (fun f -> f <> "e(1, 2).") !edb;
          let r = Result.get_ok (Client.retract c ~view:"tc" ~facts:"e(1, 2)." ()) in
          check_bool "retract ok" true (Client.is_ok r);
          check_bool "retract answers = one-shot eval" true (Client.answers r = scratch ());
          let q = Result.get_ok (Client.query c ~view:"tc" ()) in
          check_bool "query ok" true (Client.is_ok q);
          check_bool "query answers = last update's" true
            (Client.answers q = Client.answers r);
          check_bool "query reports fixpoint" true
            (Option.bind (Json.member "fixpoint" q) Json.to_bool = Some true);
          (* views are tenant-scoped *)
          let r = Result.get_ok (Client.query c ~tenant:"other" ~view:"tc" ()) in
          check_bool "another tenant does not see the view" true
            (Client.error_kind r = Some "unknown_view");
          (* bad facts are a structured parse error, and the view survives *)
          let r = Result.get_ok (Client.insert c ~view:"tc" ~facts:"e(1," ()) in
          check_bool "malformed facts" true (Client.error_kind r = Some "parse_error");
          check_bool "view survives the parse error" true
            (Client.is_ok (Result.get_ok (Client.query c ~view:"tc" ())));
          (* materializing an existing name replaces (and closes) the view *)
          let r =
            Result.get_ok
              (Client.materialize c ~view:"tc" ~pipeline:"none" ~edb:"e(7, 8)."
                 ~program:tc_program ())
          in
          check_bool "re-materialize ok" true (Client.is_ok r);
          check_bool "query reads the replacement" true
            (Client.answers (Result.get_ok (Client.query c ~view:"tc" ())) = [ "t(7, 8)" ]);
          (* the view cache shows up in stats *)
          let s = Result.get_ok (Client.stats c) in
          match Json.member "view_cache" s with
          | Some vc ->
              check_bool "view cached" true
                (match Option.bind (Json.member "entries" vc) Json.to_int with
                | Some n -> n >= 1
                | None -> false)
          | None -> Alcotest.fail "stats lacks view_cache"))

let test_server_maintenance_budget () =
  with_server "viewbudget" (fun socket _ ->
      with_client socket (fun c ->
          let chain n =
            String.concat " " (List.init n (fun i -> Printf.sprintf "e(%d, %d)." i (i + 1)))
          in
          let r =
            Result.get_ok
              (Client.materialize c ~view:"tc" ~pipeline:"none" ~edb:(chain 3)
                 ~program:tc_program ())
          in
          check_bool "materialize ok" true (Client.is_ok r);
          (* maintenance requests pass the same admission gate as evals:
             asking for more than the server cap is rejected up front *)
          let r =
            Result.get_ok
              (Client.insert c ~max_derivations:1_000_000 ~view:"tc" ~facts:"e(3, 4)." ())
          in
          check_bool "over-cap maintenance budget rejected" true
            (Client.error_kind r = Some "admission");
          check_bool "rejected op did not touch the view" true
            (Client.is_ok (Result.get_ok (Client.query c ~view:"tc" ())));
          (* a maintenance round truncated by its budget drops the view
             instead of serving an under-approximated fixpoint *)
          let r =
            Result.get_ok
              (Client.insert c ~max_iterations:1 ~view:"tc" ~facts:(chain 10) ())
          in
          check_bool "truncated maintenance is a budget error" true
            (Client.error_kind r = Some "budget");
          check_bool "budget message mentions the drop" true
            (match Client.error_message r with
            | Some m ->
                let has sub =
                  let n = String.length sub in
                  let rec go i =
                    i + n <= String.length m && (String.sub m i n = sub || go (i + 1))
                  in
                  go 0
                in
                has "dropped"
            | None -> false);
          let r = Result.get_ok (Client.query c ~view:"tc" ()) in
          check_bool "truncated view was dropped" true
            (Client.error_kind r = Some "unknown_view");
          (* budgets on materialize itself: a truncated materialization is
             a budget error and nothing is cached *)
          let r =
            Result.get_ok
              (Client.materialize c ~view:"big" ~pipeline:"none" ~max_iterations:2
                 ~edb:(chain 10) ~program:tc_program ())
          in
          check_bool "truncated materialize is a budget error" true
            (Client.error_kind r = Some "budget");
          let r = Result.get_ok (Client.query c ~view:"big" ()) in
          check_bool "truncated materialize cached nothing" true
            (Client.error_kind r = Some "unknown_view")))

(* EDB facts whose arity disagrees with the program are a structured
   parse error on every op, and a rejected insert leaves the view intact
   and still maintaining *)
let test_server_edb_arity () =
  let program = "r1: q(X) :- r(Y), p(X, Y).\n#query q." in
  with_server "arity" (fun socket _ ->
      with_client socket (fun c ->
          let kind r = Client.error_kind (Result.get_ok r) in
          check_bool "eval: parse error" true
            (kind (Client.eval c ~pipeline:"none" ~edb:"p(1). p(1, 2). r(2)." ~program ())
            = Some "parse_error");
          check_bool "materialize: parse error" true
            (kind
               (Client.materialize c ~view:"bad" ~pipeline:"none" ~edb:"p(1). p(1, 2). r(2)."
                  ~program ())
            = Some "parse_error");
          let r =
            Result.get_ok
              (Client.materialize c ~view:"v" ~pipeline:"none" ~edb:"p(1, 2). r(2)."
                 ~program ())
          in
          check_bool "materialize ok" true (Client.is_ok r);
          check_bool "insert: parse error" true
            (kind (Client.insert c ~view:"v" ~facts:"p(1)." ()) = Some "parse_error");
          let q = Result.get_ok (Client.query c ~view:"v" ()) in
          check_bool "the view is intact" true
            (Client.is_ok q && Client.answers q = Client.answers r);
          let r = Result.get_ok (Client.insert c ~view:"v" ~facts:"p(5, 4). p(6, 2)." ()) in
          check_bool "well-formed inserts still succeed" true (Client.is_ok r);
          check_bool "and are maintained" true
            (List.sort compare (Client.answers r) = [ "q(1)"; "q(6)" ])))

let () =
  Alcotest.run "cql_serve"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode;
          Alcotest.test_case "parse errors" `Quick test_json_errors;
          Alcotest.test_case "nesting depth" `Quick test_json_depth;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "float printing" `Quick test_json_float_printing;
          Alcotest.test_case "integer bounds" `Quick test_json_int_bounds;
        ] );
      ( "framing",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "bad header" `Quick test_frame_bad_header;
          Alcotest.test_case "truncated" `Quick test_frame_truncated;
          Alcotest.test_case "too large" `Quick test_frame_too_large;
        ] );
      ( "requests", [ Alcotest.test_case "decoding" `Quick test_request_of_json ] );
      ( "plan-cache", [ Alcotest.test_case "LRU + counters" `Quick test_plan_cache_lru ] );
      ( "admission",
        [
          Alcotest.test_case "verdicts" `Quick test_admission;
          Alcotest.test_case "tenant rows stay bounded" `Quick test_admission_tenant_rows;
        ] );
      ( "loadgen",
        [ Alcotest.test_case "nearest-rank percentiles" `Quick test_loadgen_percentile ] );
      ( "server",
        [
          Alcotest.test_case "cache miss then hit" `Quick test_server_cache_miss_then_hit;
          Alcotest.test_case "parse errors are structured" `Quick test_server_parse_error;
          Alcotest.test_case "admission + budget" `Quick test_server_admission_and_budget;
          Alcotest.test_case "stats + queryless" `Quick test_server_stats_and_queryless;
          Alcotest.test_case "malformed frames" `Quick test_server_malformed_frames;
          Alcotest.test_case "oversized frame" `Quick test_server_oversized_frame;
          Alcotest.test_case "shutdown drains in-flight" `Quick test_server_shutdown_drains;
          Alcotest.test_case "concurrent clients" `Quick test_server_concurrent_clients;
          Alcotest.test_case "more clients than workers" `Quick
            test_server_more_clients_than_workers;
          Alcotest.test_case "wire format pinned" `Quick test_server_wire;
        ] );
      ( "views",
        [
          Alcotest.test_case "materialize/insert/retract/query" `Quick
            test_server_view_lifecycle;
          Alcotest.test_case "admission + budget on maintenance" `Quick
            test_server_maintenance_budget;
          Alcotest.test_case "EDB arity mismatch" `Quick test_server_edb_arity;
        ] );
    ]
