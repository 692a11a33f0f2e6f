(* Tests for the differential fuzzing subsystem (Cql_gen): generator
   invariants as qcheck properties over seeds, fixed-seed determinism of the
   harness, zero-failure runs in both constraint modes, the injected-bug
   catch with its shrink bound, and counterexample round-tripping. *)

open Cql_datalog
module G = Cql_gen.Generate
module H = Cql_gen.Harness
module Rng = Cql_gen.Rng
module Decidable = Cql_core.Decidable

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ----- generator invariants, property-style over the seed space ----- *)

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1_000_000)

let prop_case_well_formed =
  QCheck.Test.make ~name:"generated cases are well-formed" ~count:150 seed_arb (fun seed ->
      let rng = Rng.create seed in
      let p, edb = G.case rng (G.default G.Decidable) in
      Program.check p = Ok ()
      && Program.is_range_restricted p
      && (match p.Program.query with Some q -> Program.is_derived p q | None -> false)
      && List.for_all Cql_eval.Fact.is_ground edb)

let prop_decidable_in_class =
  QCheck.Test.make ~name:"decidable mode stays in the Theorem 5.1 class" ~count:150 seed_arb
    (fun seed ->
      let rng = Rng.create seed in
      let p, _ = G.case rng (G.default G.Decidable) in
      Decidable.in_class p)

let prop_linear_well_formed =
  QCheck.Test.make ~name:"linear mode is still range-restricted" ~count:150 seed_arb
    (fun seed ->
      let rng = Rng.create seed in
      let p, _ = G.case rng (G.default G.Linear) in
      Program.check p = Ok () && Program.is_range_restricted p)

(* ----- fixed-seed determinism ----- *)

let test_determinism () =
  let snapshot () =
    let s = H.run ~seed:42 ~count:30 () in
    ( s.H.stats.H.cases,
      s.H.stats.H.evaluated,
      s.H.stats.H.checks,
      s.H.stats.H.facts_derived,
      s.H.failure = None )
  in
  let a = snapshot () and b = snapshot () in
  check_bool "same seed, same run" true (a = b);
  let rng1 = Rng.create 7 and rng2 = Rng.create 7 in
  check_bool "same seed, same program" true
    (Program.to_string (G.program rng1 (G.default G.Decidable))
    = Program.to_string (G.program rng2 (G.default G.Decidable)))

(* ----- zero-failure runs per mode ----- *)

let test_oracles_decidable () =
  let s = H.run ~seed:42 ~count:60 () in
  check_int "all cases generated" 60 s.H.stats.H.cases;
  check_bool "no failure" true (s.H.failure = None);
  check_bool "oracle checks happened" true (s.H.stats.H.checks > 0)

let test_oracles_linear () =
  let s = H.run ~config:(G.default G.Linear) ~seed:42 ~count:60 () in
  check_bool "no failure" true (s.H.failure = None);
  check_bool "some cases evaluated" true (s.H.stats.H.evaluated > 0)

let prop_int_well_formed =
  QCheck.Test.make ~name:"int mode is still range-restricted" ~count:150 seed_arb
    (fun seed ->
      let rng = Rng.create seed in
      let p, _ = G.case rng (G.default G.Int) in
      Program.check p = Ok () && Program.is_range_restricted p)

let test_oracles_int () =
  (* int mode runs every case under the ℤ domain (so the cache, parallel,
     interval and compiled differentials double as ℤ-transparency checks)
     plus the rational-relaxation coverage oracle *)
  let s = H.run ~config:(G.default G.Int) ~seed:42 ~count:40 () in
  check_bool "no failure" true (s.H.failure = None);
  check_bool "some cases evaluated" true (s.H.stats.H.evaluated > 0);
  check_bool "oracle checks happened" true (s.H.stats.H.checks > 0);
  check_bool "relaxation oracle is addressable" true
    (H.oracle_name H.Relaxation = "relaxation");
  (* the run restores the caller's domain *)
  check_bool "domain restored" true (Cql_constr.Cdomain.current () = Cql_constr.Cdomain.Q)

(* ----- the interval-tier transparency oracle ----- *)

let test_interval_tier_oracle () =
  (* the tier differential runs inside every check_case, so a clean run
     means zero tier-on/tier-off mismatches across the generated cases *)
  let s = H.run ~seed:7 ~count:40 () in
  check_bool "no failure" true (s.H.failure = None);
  check_bool "oracle checks happened" true (s.H.stats.H.checks > 0);
  (* the oracle name round-trips for --mode wiring and failure reports *)
  check_bool "interval oracle is addressable" true
    (H.oracle_name H.Tier = "interval");
  (* an explicit case checked with the tier pinned off also passes: the
     differential really compares two different code paths and restores the
     caller's tier state afterwards *)
  let rng = Rng.create 21 in
  let p, edb = G.case rng (G.default G.Decidable) in
  let prev = Cql_constr.Interval.enabled () in
  check_bool "case passes with the tier off" true
    (Cql_constr.Interval.with_tier false (fun () ->
         H.check_case ~mode:G.Decidable (H.new_stats ()) p edb)
    = None);
  check_bool "tier state restored" true (Cql_constr.Interval.enabled () = prev)

(* ----- silent pred/QRP fallbacks are counted ----- *)

let count_fallbacks ?max_iters src edb_src =
  let p = Parser.program_of_string src in
  let edb = List.map Cql_eval.Fact.of_fact_rule (Parser.facts_of_string edb_src) in
  let st = H.new_stats () in
  check_bool "case passes" true (H.check_case ?max_iters ~mode:G.Linear st p edb = None);
  check_bool "case evaluated" true (st.H.evaluated = 1);
  st.H.rewrites_unconverged

let test_unconverged_counted () =
  (* a bounded counting recursion: its pred fixpoint needs more than one
     iteration, so with [max_iters = 1] the rewrites fall back to [true] *)
  let recursive =
    {|r1: hops(X, N) :- start(X), N = 0.
r2: hops(Y, N) :- hops(X, M), link(X, Y), N = M + 1, N <= 3.
#query hops.
|}
  in
  let links = "start(a). link(a, b). link(b, c). link(c, a)." in
  check_bool "recursive case at max_iters 1 falls back" true
    (count_fallbacks ~max_iters:1 recursive links >= 1);
  let flat = "r1: cheap(X, C) :- offer(X, C), C <= 5.\n#query cheap.\n" in
  check_int "non-recursive case converges" 0
    (count_fallbacks flat "offer(a, 3). offer(b, 9).")

(* ----- the injected bug is caught and shrinks small ----- *)

let test_injected_bug_caught () =
  (* a slightly denser configuration reaches a multi-disjunct QRP constraint
     quickly; the broken propagation (definitions from a tightened cset,
     folds trusting the original) must lose an answer *)
  let config =
    { (G.default G.Decidable) with G.max_rules_per_pred = 3; G.max_body_lits = 3;
      G.max_edb_facts = 6 }
  in
  let s = H.run ~tamper:H.drop_disjuncts ~config ~seed:42 ~count:200 () in
  match s.H.failure with
  | None -> Alcotest.fail "injected bug was not caught"
  | Some f ->
      check_bool "caught by the answers oracle" true (f.H.oracle = H.Answers);
      check_bool "attributed to the tampered pipeline" true (f.H.pipeline = "qrp(tampered)");
      let rules = List.length f.H.program.Program.rules in
      check_bool "shrunk to at most 4 rules" true (rules <= 4);
      (* the shrunk case must still fail on replay with the same tamper *)
      check_bool "shrunk case still fails" true
        (H.check_case ~tamper:H.drop_disjuncts ~mode:G.Decidable (H.new_stats ()) f.H.program
           f.H.edb
        <> None)

(* ----- generator exhaustion is typed and recoverable ----- *)

let test_generate_exhausted () =
  (* seed 8 under the linear default deterministically produces an invalid
     draw, so a budget of one attempt must raise the typed exception ... *)
  (match G.case ~attempts:1 (Rng.create 8) (G.default G.Linear) with
  | exception G.Exhausted { attempts } -> check_int "attempts reported" 1 attempts
  | _ -> Alcotest.fail "expected Exhausted at attempts:1");
  (* ... while the default budget retries within the same stream and
     succeeds on that very seed *)
  let p, _ = G.case (Rng.create 8) (G.default G.Linear) in
  check_bool "default budget recovers" true (Program.check p = Ok ());
  match G.program ~attempts:1 (Rng.create 8) (G.default G.Linear) with
  | exception G.Exhausted _ -> ()
  | _ -> Alcotest.fail "program shares case's budget"

let test_exhausted_reseed_retry () =
  (* the harness's recovery discipline: on Exhausted, draw again from the
     next split substream.  Parent seed 0's first substream exhausts at
     attempts:1 and the next one succeeds, so one retry must do it. *)
  let rng = Rng.create 0 in
  let retries = ref 0 in
  let rec draw retries_left =
    let sub = Rng.split rng in
    match G.case ~attempts:1 sub (G.default G.Linear) with
    | case -> case
    | exception G.Exhausted _ when retries_left > 0 ->
        incr retries;
        draw (retries_left - 1)
  in
  let p, _ = draw 10 in
  check_int "recovered after one reseed" 1 !retries;
  check_bool "recovered case is well-formed" true (Program.check p = Ok ());
  (* the harness counts those retries; a fresh stats record starts clean *)
  check_int "fresh stats start at zero retries" 0 (H.new_stats ()).H.gen_retries

(* ----- the update oracle ----- *)

let test_update_oracle_passes () =
  let s = H.run_update ~seed:42 ~count:20 () in
  check_int "all cases generated" 20 s.H.stats.H.cases;
  check_bool "no failure" true (s.H.failure = None);
  check_bool "update checks happened" true (s.H.stats.H.checks > 0)

let test_update_oracle_determinism () =
  let snapshot () =
    let s = H.run_update ~seed:9 ~count:10 () in
    (s.H.stats.H.cases, s.H.stats.H.evaluated, s.H.stats.H.checks, s.H.failure = None)
  in
  check_bool "same seed, same run" true (snapshot () = snapshot ())

let test_gen_updates () =
  let module F = Cql_eval.Fact in
  let rng = Rng.create 5 in
  let _, edb = G.case rng { (G.default G.Decidable) with G.max_edb_facts = 12 } in
  let edb0, ops = H.gen_updates (Rng.split rng) edb in
  check_bool "some ops drawn" true (ops <> []);
  check_bool "initial database drawn from the generated pool" true
    (List.length edb0 <= List.length edb
    && List.for_all (fun f -> List.exists (fun g -> F.compare f g = 0) edb) edb0);
  (* every op's fact comes from the pool too — the sequence only ever moves
     facts between "present" and "insertable" (plus absent-retract no-ops) *)
  check_bool "ops range over the pool" true
    (List.for_all
       (fun op ->
         let f = match op with H.Insert f | H.Retract f -> f in
         List.exists (fun g -> F.compare f g = 0) edb)
       ops)

let test_update_case_explicit () =
  let p =
    Parser.program_of_string "r1: t(X, Y) :- e(X, Y).\nr2: t(X, Y) :- t(X, Z), e(Z, Y).\n#query t."
  in
  let f s = Cql_eval.Fact.of_fact_rule (Parser.rule_of_string s) in
  let edb = [ f "e(1, 2)."; f "e(2, 3)." ] in
  let ops =
    [
      H.Insert (f "e(3, 4).");
      H.Retract (f "e(1, 2).");
      H.Retract (f "e(9, 9).");
      (* absent: a no-op *)
      H.Insert (f "e(1, 2).");
      (* retract-then-reinsert *)
    ]
  in
  let st = H.new_stats () in
  check_bool "incremental view tracks from-scratch after every step" true
    (H.check_update_case st p edb ops = None);
  check_bool "steps were checked" true (st.H.checks > 0)

(* ----- counterexample round-trip ----- *)

let test_counterexample_roundtrip () =
  let rng = Rng.create 11 in
  let p, edb = G.case rng (G.default G.Decidable) in
  let failure =
    { H.oracle = H.Answers; pipeline = "qrp"; detail = "demo"; program = p; edb; updates = [] }
  in
  let summary = { H.seed = 11; count = 1; stats = H.new_stats (); failure = Some failure } in
  let doc = H.counterexample_to_string summary failure in
  let p', edb', updates' = H.parse_counterexample doc in
  check_int "no updates section round-trips to no ops" 0 (List.length updates');
  (* the parser freshens variable names; compare after prettification *)
  check_bool "program survives the round trip" true
    (Program.to_string (Program.prettify p) = Program.to_string (Program.prettify p'));
  check_int "edb size survives" (List.length edb) (List.length edb');
  check_bool "edb facts survive" true
    (List.for_all2 Cql_eval.Fact.equal
       (List.sort Cql_eval.Fact.compare edb)
       (List.sort Cql_eval.Fact.compare edb'))

let test_update_counterexample_roundtrip () =
  let rng = Rng.create 13 in
  let p, edb = G.case rng (G.default G.Decidable) in
  let f = List.hd edb in
  let updates = [ H.Insert f; H.Retract f; H.Insert (List.hd (List.rev edb)) ] in
  let failure =
    { H.oracle = H.Update; pipeline = "eval"; detail = "demo"; program = p; edb; updates }
  in
  let summary = { H.seed = 13; count = 1; stats = H.new_stats (); failure = Some failure } in
  let doc = H.counterexample_to_string summary failure in
  let p', edb', updates' = H.parse_counterexample doc in
  check_bool "program survives" true
    (Program.to_string (Program.prettify p) = Program.to_string (Program.prettify p'));
  check_int "edb size survives" (List.length edb) (List.length edb');
  check_bool "the op sequence survives in order" true
    (List.length updates = List.length updates'
    && List.for_all2
         (fun a b -> H.update_op_to_string a = H.update_op_to_string b)
         updates updates')

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "fuzz"
    [
      ( "generator",
        qt
          [
            prop_case_well_formed; prop_decidable_in_class; prop_linear_well_formed;
            prop_int_well_formed;
          ] );
      ( "harness",
        [
          Alcotest.test_case "fixed-seed determinism" `Quick test_determinism;
          Alcotest.test_case "decidable mode, oracles pass" `Quick test_oracles_decidable;
          Alcotest.test_case "linear mode, oracles pass" `Quick test_oracles_linear;
          Alcotest.test_case "int mode, oracles pass" `Quick test_oracles_int;
          Alcotest.test_case "interval tier transparency" `Quick test_interval_tier_oracle;
          Alcotest.test_case "injected bug caught and shrunk" `Quick test_injected_bug_caught;
          Alcotest.test_case "typed generator exhaustion" `Quick test_generate_exhausted;
          Alcotest.test_case "reseeded retry recovers" `Quick test_exhausted_reseed_retry;
          Alcotest.test_case "counterexample round-trip" `Quick test_counterexample_roundtrip;
          Alcotest.test_case "unconverged rewrites counted" `Quick test_unconverged_counted;
        ] );
      ( "update-oracle",
        [
          Alcotest.test_case "random update streams pass" `Quick test_update_oracle_passes;
          Alcotest.test_case "fixed-seed determinism" `Quick test_update_oracle_determinism;
          Alcotest.test_case "gen_updates invariants" `Quick test_gen_updates;
          Alcotest.test_case "explicit update case" `Quick test_update_case_explicit;
          Alcotest.test_case "update counterexample round-trip" `Quick
            test_update_counterexample_roundtrip;
        ] );
    ]
