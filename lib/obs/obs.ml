(* Structured tracing and metrics.

   Design constraints (see DESIGN.md §11):

   - Dependency-free: the only native code is a one-function monotonic-clock
     stub; no opam packages.
   - Disabled is free: every entry point first reads one [Atomic.t] flag and
     returns to the caller's code without allocating.  Tracing is off unless
     [set_enabled true] ran (the [CQLOPT_TRACE] environment variable arms it
     at startup), so the evaluation hot path is unaffected.
   - Domain-safe: span stacks live in [Domain.DLS], so nesting is tracked
     per domain; completed events are appended to one global buffer under a
     mutex (spans close at phase granularity, never per derivation, so the
     lock is uncontended in practice); counters are [Atomic.t].

   A span event records its id, its parent's id (per-domain nesting), the
   monotonic start and duration in nanoseconds, the domain it ran on, any
   integer/string fields attached with [add_field] while it was open, and
   the delta of every registered counter over its extent.  Counter deltas
   are observational: counters are process-wide, so work that other
   domains do concurrently (the server's other requests) is attributed to
   whichever spans are open while it runs. *)

external monotonic_ns : unit -> int64 = "caml_obs_monotonic_ns"

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* ----- counters ----- *)

type counter = { c_name : string; cell : int Atomic.t }

let registry_mu = Mutex.create ()
let registry : counter list ref = ref []

let counter name =
  Mutex.protect registry_mu (fun () ->
      match List.find_opt (fun c -> c.c_name = name) !registry with
      | Some c -> c
      | None ->
          let c = { c_name = name; cell = Atomic.make 0 } in
          registry := c :: !registry;
          c)

let incr c = Atomic.incr c.cell
let add c n = ignore (Atomic.fetch_and_add c.cell n)
let value c = Atomic.get c.cell

let zero prefix =
  List.iter (fun c -> if String.starts_with ~prefix c.c_name then Atomic.set c.cell 0) !registry

let counters () =
  List.sort compare (List.map (fun c -> (c.c_name, Atomic.get c.cell)) !registry)

(* ----- spans and events ----- *)

type field = Int of int | Str of string

type event = {
  id : int;
  parent : int; (* 0 = no parent (root span of its domain) *)
  name : string;
  domain : int;
  start_ns : int64;
  dur_ns : int64;
  fields : (string * field) list;
  counter_deltas : (string * int) list; (* nonzero deltas over the span *)
}

type open_span = {
  os_id : int;
  os_name : string;
  os_parent : int;
  os_start : int64;
  mutable os_fields : (string * field) list; (* newest first *)
  os_csnap : (counter * int) list;
}

let span_ids = Atomic.make 0
let stack_key : open_span list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let events_mu = Mutex.create ()
let events_rev : event list ref = ref []
let n_events = ref 0

(* backstop so an unboundedly long traced run cannot grow without limit;
   dropped events are counted and reported in the summary *)
let max_events = ref 1_000_000
let dropped = Atomic.make 0

let record ev =
  Mutex.protect events_mu (fun () ->
      if !n_events < !max_events then begin
        events_rev := ev :: !events_rev;
        Stdlib.incr n_events
      end
      else Atomic.incr dropped)

let reset () =
  Mutex.protect events_mu (fun () ->
      events_rev := [];
      n_events := 0);
  Atomic.set dropped 0

let events () = Mutex.protect events_mu (fun () -> List.rev !events_rev)

let dropped_events () = Atomic.get dropped

let add_field name v =
  if Atomic.get enabled_flag then
    match !(Domain.DLS.get stack_key) with
    | [] -> ()
    | os :: _ -> os.os_fields <- (name, Int v) :: os.os_fields

let add_field_str name v =
  if Atomic.get enabled_flag then
    match !(Domain.DLS.get stack_key) with
    | [] -> ()
    | os :: _ -> os.os_fields <- (name, Str v) :: os.os_fields

let span name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let parent = match !stack with [] -> 0 | os :: _ -> os.os_id in
    let csnap = List.map (fun c -> (c, Atomic.get c.cell)) !registry in
    let os =
      {
        os_id = Atomic.fetch_and_add span_ids 1 + 1;
        os_name = name;
        os_parent = parent;
        os_start = monotonic_ns ();
        os_fields = [];
        os_csnap = csnap;
      }
    in
    stack := os :: !stack;
    let finish () =
      let stop = monotonic_ns () in
      stack := List.filter (fun o -> o != os) !stack;
      let deltas =
        List.filter_map
          (fun (c, v0) ->
            let d = Atomic.get c.cell - v0 in
            if d = 0 then None else Some (c.c_name, d))
          os.os_csnap
      in
      record
        {
          id = os.os_id;
          parent = os.os_parent;
          name = os.os_name;
          domain = (Domain.self () :> int);
          start_ns = os.os_start;
          dur_ns = Int64.sub stop os.os_start;
          fields = List.rev os.os_fields;
          counter_deltas = deltas;
        }
    in
    Fun.protect ~finally:finish f
  end

(* ----- NDJSON export ----- *)

let escape b s =
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let event_to_json (ev : event) =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\"name\":\"";
  escape b ev.name;
  Buffer.add_string b "\",\"id\":";
  Buffer.add_string b (string_of_int ev.id);
  Buffer.add_string b ",\"parent\":";
  Buffer.add_string b (if ev.parent = 0 then "null" else string_of_int ev.parent);
  Buffer.add_string b ",\"domain\":";
  Buffer.add_string b (string_of_int ev.domain);
  Printf.bprintf b ",\"start_ns\":%Ld,\"dur_ns\":%Ld" ev.start_ns ev.dur_ns;
  Buffer.add_string b ",\"fields\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '"';
      escape b k;
      Buffer.add_string b "\":";
      match v with
      | Int n -> Buffer.add_string b (string_of_int n)
      | Str s ->
          Buffer.add_char b '"';
          escape b s;
          Buffer.add_char b '"')
    ev.fields;
  Buffer.add_string b "},\"counters\":{";
  List.iteri
    (fun i (k, d) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '"';
      escape b k;
      Buffer.add_string b "\":";
      Buffer.add_string b (string_of_int d))
    ev.counter_deltas;
  Buffer.add_string b "}}";
  Buffer.contents b

let write_ndjson oc =
  List.iter
    (fun ev ->
      output_string oc (event_to_json ev);
      output_char oc '\n')
    (events ())

(* ----- summary ----- *)

type summary_row = {
  sr_name : string;
  sr_count : int;
  sr_total_ns : int64;
  sr_max_ns : int64;
}

let summary () =
  let tbl : (string, summary_row ref) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun ev ->
      match Hashtbl.find_opt tbl ev.name with
      | Some r ->
          r :=
            {
              !r with
              sr_count = !r.sr_count + 1;
              sr_total_ns = Int64.add !r.sr_total_ns ev.dur_ns;
              sr_max_ns = (if ev.dur_ns > !r.sr_max_ns then ev.dur_ns else !r.sr_max_ns);
            }
      | None ->
          Hashtbl.add tbl ev.name
            (ref { sr_name = ev.name; sr_count = 1; sr_total_ns = ev.dur_ns; sr_max_ns = ev.dur_ns });
          order := ev.name :: !order)
    (events ());
  List.sort
    (fun a b -> Int64.compare b.sr_total_ns a.sr_total_ns)
    (List.rev_map (fun name -> !(Hashtbl.find tbl name)) !order)

let ms ns = Int64.to_float ns /. 1e6

let pp_summary fmt () =
  let rows = summary () in
  if rows = [] then Format.fprintf fmt "obs: no spans recorded (tracing off?)@\n"
  else begin
    Format.fprintf fmt "obs: %-32s %8s %12s %12s %12s@\n" "span" "count" "total ms" "mean us"
      "max us";
    List.iter
      (fun r ->
        Format.fprintf fmt "obs: %-32s %8d %12.3f %12.1f %12.1f@\n" r.sr_name r.sr_count
          (ms r.sr_total_ns)
          (Int64.to_float r.sr_total_ns /. 1e3 /. float_of_int r.sr_count)
          (Int64.to_float r.sr_max_ns /. 1e3))
      rows;
    let d = dropped_events () in
    if d > 0 then Format.fprintf fmt "obs: %d events dropped (max_events backstop)@\n" d
  end;
  let cs = List.filter (fun (_, v) -> v <> 0) (counters ()) in
  if cs <> [] then begin
    Format.fprintf fmt "obs: counters:@\n";
    List.iter (fun (name, v) -> Format.fprintf fmt "obs:   %-40s %d@\n" name v) cs
  end

(* Arm tracing from the environment so `CQLOPT_TRACE=1 dune runtest` (the CI
   tracing pass) exercises the instrumented paths without code changes. *)
let () =
  match Sys.getenv_opt "CQLOPT_TRACE" with
  | Some ("" | "0" | "false") | None -> ()
  | Some _ -> set_enabled true
