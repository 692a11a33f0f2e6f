(* Reference answers computed without the rewriter or the engine, and the
   answer comparison every workload uses.  Answers are compared as sorted
   sets of tuples rendered "a|b|45|30", whatever predicate name the
   rewritten program gives the query. *)

module Fact = Cql_eval.Fact

type leg = { src : string; dst : string; time : int; cost : int }

let sort_uniq l = List.sort_uniq String.compare l

(* Example 1.1: cheaporshort holds the walks of the network whose total
   time (legs plus a 30-minute layover per connection) is at most [tmax] or
   whose total cost is at most [cmax].  Both totals only grow along a walk,
   so a walk over both limits has no extension that is an answer. *)
let flights ~tmax ~cmax legs =
  let legs = List.filter (fun l -> l.time > 0 && l.cost > 0) legs in
  let out = Hashtbl.create 64 in
  List.iter (fun l -> Hashtbl.add out l.src l) legs;
  let found = Hashtbl.create 1024 in
  let rec extend start at t c =
    List.iter
      (fun l ->
        let t = if c = 0 then l.time else t + 30 + l.time and c = c + l.cost in
        if float_of_int t <= tmax || float_of_int c <= cmax then begin
          Hashtbl.replace found (Printf.sprintf "%s|%s|%d|%d" start l.dst t c) ();
          extend start l.dst t c
        end)
      (Hashtbl.find_all out at)
  in
  let starts = sort_uniq (List.map (fun l -> l.src) legs) in
  List.iter (fun s -> extend s s 0 0) starts;
  sort_uniq (Hashtbl.fold (fun k () acc -> k :: acc) found [])

(* Example D.1: q(X, Y) holds when b1(X, Z), X <= xmax, and Y is reachable
   from Z by one or more b2 edges. *)
let d1 ~xmax b1 b2 =
  let succ = Hashtbl.create 256 in
  List.iter (fun (a, b) -> Hashtbl.add succ a b) b2;
  let reach_memo = Hashtbl.create 64 in
  let reach z =
    match Hashtbl.find_opt reach_memo z with
    | Some r -> r
    | None ->
        let seen = Hashtbl.create 64 in
        let rec go n =
          List.iter
            (fun m ->
              if not (Hashtbl.mem seen m) then begin
                Hashtbl.replace seen m ();
                go m
              end)
            (Hashtbl.find_all succ n)
        in
        go z;
        let r = Hashtbl.fold (fun k () acc -> k :: acc) seen [] in
        Hashtbl.replace reach_memo z r;
        r
  in
  List.concat_map
    (fun (x, z) ->
      if x <= xmax then List.map (fun y -> Printf.sprintf "%d|%d" x y) (reach z) else [])
    b1
  |> sort_uniq

(* ----- rendering the system's answers ----- *)

let of_fact (f : Fact.t) =
  Array.to_list
    (Array.mapi
       (fun i a ->
         match a with
         | Fact.Psym s -> s
         | Fact.Pvar -> (
             match Fact.ground_value f (i + 1) with
             | Some v -> Cql_num.Rat.to_string v
             (* a constraint fact never equals a reference tuple *)
             | None -> "?" ^ Fact.to_string f))
       f.Fact.args)
  |> String.concat "|"

let of_facts fs = sort_uniq (List.map of_fact fs)

(* "cheaporshort(c0, c1, 45, 30)" -> "c0|c1|45|30" *)
let of_wire s =
  match (String.index_opt s '(', String.rindex_opt s ')') with
  | Some i, Some j when j > i ->
      String.sub s (i + 1) (j - i - 1)
      |> String.split_on_char ','
      |> List.map String.trim
      |> String.concat "|"
  | _ -> s

let of_wire_list l = sort_uniq (List.map of_wire l)
let same (expected : string list) (got : string list) = List.equal String.equal expected got

(* ----- self-test ----- *)

(* The 5-leg network of examples/programs/flights_edb.cql has exactly the 7
   answers worked out by hand below; each perturbation of that set (an
   answer dropped, one added, one value changed) must be flagged. *)
let self_test () =
  let leg src dst time cost = { src; dst; time; cost } in
  let legs =
    [
      leg "madison" "chicago" 50 100;
      leg "chicago" "seattle" 230 90;
      leg "chicago" "newyork" 110 160;
      leg "newyork" "boston" 45 60;
      leg "seattle" "anchorage" 200 210;
    ]
  in
  let expected =
    sort_uniq
      [
        "madison|chicago|50|100";
        "chicago|seattle|230|90";
        "chicago|newyork|110|160";
        "newyork|boston|45|60";
        "seattle|anchorage|200|210";
        "madison|newyork|190|260";
        "chicago|boston|185|220";
      ]
  in
  let got = flights ~tmax:240. ~cmax:150. legs in
  let perturbed =
    [
      List.tl got;
      sort_uniq ("madison|boston|265|320" :: got);
      List.map (fun s -> if s = "newyork|boston|45|60" then "newyork|boston|45|61" else s) got;
    ]
  in
  let d1_ok =
    d1 ~xmax:4 [ (1, 100); (7, 300) ] [ (100, 101); (101, 102); (300, 301) ]
    = [ "1|101"; "1|102" ]
  in
  let wire_ok = of_wire "cheaporshort(c0, c1, 45, 30)" = "c0|c1|45|30" in
  same expected got && d1_ok && wire_ok && List.for_all (fun p -> not (same expected p)) perturbed
