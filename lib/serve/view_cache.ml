module Engine = Cql_eval.Engine

type entry = {
  view : Engine.view;
  vm : Mutex.t;  (* serializes maintenance on this one view *)
}

type t = entry Lru.t

let create ~max_entries = Lru.create ~name:"serve.view_cache" ~max_entries

(* views are tenant-scoped; '\x00' cannot occur in either component *)
let key ~tenant ~view = tenant ^ "\x00" ^ view

(* Close after the entry is unreachable from the table, waiting on its
   mutex so an in-flight maintenance op finishes first. *)
let close_entry e = Mutex.protect e.vm (fun () -> Engine.close_view e.view)

let add t ~tenant ~view:name view =
  List.iter close_entry (Lru.add t (key ~tenant ~view:name) { view; vm = Mutex.create () })

(* Look up under the table lock, then run [f] holding only the per-view
   mutex, so concurrent requests on other views (and cache lookups) are
   never blocked behind one view's maintenance round. *)
let with_view t ~tenant ~view:name f =
  Lru.find t (key ~tenant ~view:name)
  |> Option.map (fun e -> Mutex.protect e.vm (fun () -> f e.view))

let remove t ~tenant ~view:name =
  match Lru.remove t (key ~tenant ~view:name) with
  | Some e ->
      close_entry e;
      true
  | None -> false
