(* Seeded input generation.  The system under test only ever sees the text
   rendered here; the structured form feeds the reference checkers. *)

open Cql_datalog
module Fact = Cql_eval.Fact
module Generate = Cql_gen.Generate

let rng seed stream = Random.State.make [| seed; stream |]

(* ----- flights (Example 1.1) ----- *)

let flights_program ~tmax ~cmax =
  Printf.sprintf
    {|r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= %s.
r2: cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= %s.
r3: flight(Src, Dst, Time, Cost) :- singleleg(Src, Dst, Time, Cost), Cost > 0, Time > 0.
r4: flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2),
                          T = T1 + T2 + 30, C = C1 + C2.
#query cheaporshort.
|}
    tmax cmax

type network = { legs : Refcheck.leg list; spare : Refcheck.leg list }

(* [cities] cities with exactly [degree] outgoing legs each, to distinct
   random destinations.  The leg times are a shuffle of the same evenly
   spaced values over [time] in every network, and likewise the costs, so
   networks differ only in how legs connect and pair times with costs: the
   number of walks under the limits stays close to the same from seed to
   seed.  [spare] holds [spare] extra legs per city, not in the network,
   for insert/retract writes. *)
let network st ~cities ~degree ~spare ~time:(tlo, thi) ~cost:(clo, chi) =
  let n = cities * (degree + spare) in
  let spaced lo hi = Array.init n (fun i -> lo + ((hi - lo) * i / max 1 (n - 1))) in
  let shuffle a =
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    a
  in
  let times = shuffle (spaced tlo thi) and costs = shuffle (spaced clo chi) in
  let city i = Printf.sprintf "c%d" i in
  let legs = ref [] and extra = ref [] in
  for src = 0 to cities - 1 do
    let dsts = Hashtbl.create 8 in
    while Hashtbl.length dsts < degree + spare do
      let d = Random.State.int st cities in
      if d <> src then Hashtbl.replace dsts d ()
    done;
    Hashtbl.fold (fun d () acc -> d :: acc) dsts []
    |> List.sort compare
    |> List.iteri (fun k d ->
           let i = (src * (degree + spare)) + k in
           let l = { Refcheck.src = city src; dst = city d; time = times.(i); cost = costs.(i) } in
           if k < degree then legs := l :: !legs else extra := l :: !extra)
  done;
  { legs = List.rev !legs; spare = List.rev !extra }

let leg_text (l : Refcheck.leg) =
  Printf.sprintf "singleleg(%s, %s, %d, %d).\n" l.src l.dst l.time l.cost

let legs_text legs = String.concat "" (List.map leg_text legs)

(* The writes against a view of a network: insert a spare leg, then retract
   it, the spare legs in turn.  The answers after each write are worked out
   here, once. *)
type writes = {
  base : string list;  (** answers of the network itself *)
  spare : Refcheck.leg array;
  with_spare : string list array;  (** answers with spare leg k inserted *)
  mutable inserted : int option;
  mutable next : int;
}

let writes (n : network) =
  let answers legs = Refcheck.flights ~tmax:240. ~cmax:150. legs in
  let spare = Array.of_list n.spare in
  { base = answers n.legs; spare; with_spare = Array.map (fun l -> answers (l :: n.legs)) spare;
    inserted = None; next = 0 }

let current w = match w.inserted with Some k -> w.with_spare.(k) | None -> w.base

(* the next write: whether it retracts, its fact text, and the answers after it *)
let next_write w =
  let retract, k =
    match w.inserted with
    | Some k -> (true, k)
    | None ->
        let k = w.next in
        w.next <- (k + 1) mod Array.length w.spare;
        (false, k)
  in
  w.inserted <- (if retract then None else Some k);
  (retract, leg_text w.spare.(k), current w)

(* ----- D.1 (Example 7.1) ----- *)

let d1_program =
  {|r1: q(X, Y) :- a1(X, Y), X <= 4.
r2: a1(X, Y) :- b1(X, Z), a2(Z, Y).
r3: a2(X, Y) :- b2(X, Y).
r4: a2(X, Y) :- b2(X, Z), a2(Z, Y).
#query q.
|}

type d1_edb = { b1 : (int * int) list; b2 : (int * int) list }

(* [chains] b2 chains of [length] nodes with a random skip edge on every
   other node (so closure facts are derived more than once), and one b1
   fact per chain to the chain's head, with X cycling through 0..9 so half
   the chains are selected by X <= 4 whatever the seed. *)
let d1_edb st ~chains ~length =
  let node c i = (1000 * (c + 1)) + i in
  let b2 =
    List.concat
      (List.init chains (fun c ->
           List.concat
             (List.init (length - 1) (fun i ->
                  let step = [ (node c i, node c (i + 1)) ] in
                  if i mod 2 = 0 && i + 2 < length then
                    (node c i, node c (i + 2 + Random.State.int st (min 3 (length - i - 2))))
                    :: step
                  else step))))
  in
  let b1 = List.init chains (fun c -> (c mod 10, node c 0)) in
  { b1; b2 }

let d1_text e =
  String.concat ""
    (List.map (fun (x, z) -> Printf.sprintf "b1(%d, %d).\n" x z) e.b1
    @ List.map (fun (x, y) -> Printf.sprintf "b2(%d, %d).\n" x y) e.b2)

(* ----- generated corpus (Cql_gen) ----- *)

let fact_text (f : Fact.t) =
  let args =
    Array.to_list
      (Array.mapi
         (fun i a ->
           match a with
           | Fact.Psym s -> Term.sym s
           | Fact.Pvar -> (
               match Fact.ground_value f (i + 1) with
               | Some v -> Term.num v
               | None -> invalid_arg "Inputs.fact_text: generated EDB facts are ground"))
         f.Fact.args)
  in
  Rule.to_string (Rule.fact (Literal.make (Fact.pred f) args) Cql_constr.Conj.tt) ^ "\n"

(* Recursion through arithmetic (p(X2) :- p(X1), X1 - X2 = -3), which the
   linear and int modes generate, makes the constraint fixpoints run to
   their iteration budget with a disjunct more each round: one such program
   can take seconds to rewrite and dominate a run.  So only decidable-mode
   programs, whose fixpoints converge (Theorem 5.1), are drawn recursive. *)
let corpus_config mode =
  let c = Generate.default mode in
  if mode = Generate.Decidable then c else { c with recursion = false }

let corpus_case st mode =
  let seed = Random.State.bits st in
  let p, edb = Generate.case (Cql_gen.Rng.create seed) (corpus_config mode) in
  (Program.to_string p ^ "\n", List.map fact_text edb)
