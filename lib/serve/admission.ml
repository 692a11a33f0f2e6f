type limits = {
  max_program_bytes : int;
  max_inflight_per_tenant : int;
  max_derivations : int;
  max_iterations : int;
}

let default_limits =
  {
    max_program_bytes = 1024 * 1024;
    max_inflight_per_tenant = 4;
    max_derivations = 200_000;
    max_iterations = 200;
  }

type tenant_state = { mutable inflight : int; mutable served : int; mutable rejected : int }

type t = { limits : limits; m : Mutex.t; table : (string, tenant_state) Hashtbl.t }

let create limits = { limits; m = Mutex.create (); table = Hashtbl.create 16 }
let limits t = t.limits

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* Clients choose tenant names, so the table is bounded: a new name that
   finds it full drops every row with nothing in flight (and their totals).
   A row with requests in flight stays, or its tenant could pass the
   in-flight cap. *)
let max_tenants = 1_024

let state t tenant =
  match Hashtbl.find_opt t.table tenant with
  | Some s -> s
  | None ->
      if Hashtbl.length t.table >= max_tenants then
        Hashtbl.filter_map_inplace (fun _ s -> if s.inflight > 0 then Some s else None) t.table;
      let s = { inflight = 0; served = 0; rejected = 0 } in
      Hashtbl.add t.table tenant s;
      s

type verdict =
  | Admit of { max_iterations : int; max_derivations : int }
  | Reject_oversized of string
  | Reject_busy of string
  | Reject_budget of string

let admit t ~tenant ~program_bytes ~max_iterations ~max_derivations =
  locked t (fun () ->
      let s = state t tenant in
      let l = t.limits in
      let reject mk msg =
        s.rejected <- s.rejected + 1;
        mk msg
      in
      if program_bytes > l.max_program_bytes then
        reject
          (fun m -> Reject_oversized m)
          (Printf.sprintf "program of %d bytes exceeds the %d-byte limit" program_bytes
             l.max_program_bytes)
      else if s.inflight >= l.max_inflight_per_tenant then
        reject
          (fun m -> Reject_busy m)
          (Printf.sprintf "tenant %S already has %d requests in flight" tenant s.inflight)
      else
        let over name asked cap =
          reject
            (fun m -> Reject_budget m)
            (Printf.sprintf "requested %s budget %d exceeds the server cap %d" name asked cap)
        in
        match (max_iterations, max_derivations) with
        | Some it, _ when it > l.max_iterations -> over "iteration" it l.max_iterations
        | _, Some d when d > l.max_derivations -> over "derivation" d l.max_derivations
        | _ ->
            s.inflight <- s.inflight + 1;
            s.served <- s.served + 1;
            Admit
              {
                max_iterations = Option.value max_iterations ~default:l.max_iterations;
                max_derivations = Option.value max_derivations ~default:l.max_derivations;
              })

let release t ~tenant =
  locked t (fun () ->
      match Hashtbl.find_opt t.table tenant with
      | Some s -> s.inflight <- max 0 (s.inflight - 1)
      | None -> ())

type tenant_stats = { tenant : string; inflight : int; served : int; rejected : int }

let tenants t =
  locked t (fun () ->
      Hashtbl.fold
        (fun tenant (s : tenant_state) acc ->
          { tenant; inflight = s.inflight; served = s.served; rejected = s.rejected } :: acc)
        t.table [])
  |> List.sort (fun a b -> compare a.tenant b.tenant)
