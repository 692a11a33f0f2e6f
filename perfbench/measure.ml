(* Timing loop and statistics shared by the workloads. *)

(* Main: the workload's primary operation (an evaluation); Cold: an
   evaluation the system has not seen before; Write: an insert or retract
   against a materialized view. *)
type cls = Main | Cold | Write

type sample = { cls : cls; ms : float; ok : bool; at : float  (** end time, in seconds *) }

let now_s () = Int64.to_float (Cql_obs.Obs.monotonic_ns ()) /. 1e9

(* Time one call of [f].  [f] returns the check of its answer as a closure,
   so the check runs after the clock stops; an exception or a failed check
   is a failed operation. *)
let timed cls f =
  let t0 = Cql_obs.Obs.monotonic_ns () in
  match f () with
  | check ->
      let ms = Int64.to_float (Int64.sub (Cql_obs.Obs.monotonic_ns ()) t0) /. 1e6 in
      let ok = try check () with _ -> false in
      { cls; ms; ok; at = now_s () }
  | exception e ->
      let ms = Int64.to_float (Int64.sub (Cql_obs.Obs.monotonic_ns ()) t0) /. 1e6 in
      prerr_endline ("perfbench: operation failed: " ^ Printexc.to_string e);
      { cls; ms; ok = false; at = now_s () }

(* ----- machine speed -----

   The CPU speed this benchmark sees can move by a third from one minute to
   the next, whatever the code does (another tenant's load on a shared
   host).  A fixed piece of OCaml work — hashing, allocation, sorting — is
   timed next to every measurement, and reported times are scaled by
   [kernel_ref_ms] over its median time: a time at the speed where the
   kernel takes [kernel_ref_ms].  Runs made at different machine speeds
   then compare. *)

let kernel_ref_ms = 2.0

let kernel () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 1_999 do
    Hashtbl.replace h ((i * 7919) mod 30011) (float_of_int i, string_of_int i)
  done;
  let l = List.sort compare (Hashtbl.fold (fun k (v, s) acc -> (v, k, s) :: acc) h []) in
  Sys.opaque_identity (List.fold_left (fun acc (v, k, s) -> acc +. v +. float_of_int (k + String.length s)) 0. l)

let kernel_ms () =
  let t0 = now_s () in
  ignore (kernel ());
  (now_s () -. t0) *. 1e3

let kernel_burst n = List.init n (fun _ -> kernel_ms ())

type phase = {
  samples : sample list;
  kernel_samples : float list;  (** kernel times taken between operations *)
  start : float;  (** in seconds, on the clock of [now_s] *)
  wall_s : float;
  alloc_bytes : float;  (** allocated by the driving domain(s) over the phase *)
}

(* A closed loop: the next operation starts when the previous one ends,
   until [seconds] have passed.  With [kernel_every] the speed kernel runs
   between operations at that interval, in seconds; its allocation is not
   counted. *)
let closed_loop ?kernel_every ~seconds step =
  let t0 = now_s () in
  let deadline = t0 +. seconds in
  let alloc = ref 0. and kernels = ref [] and next_kernel = ref t0 in
  let rec go acc =
    let now = now_s () in
    if now >= deadline then acc
    else begin
      (match kernel_every with
      | Some every when now >= !next_kernel ->
          kernels := kernel_ms () :: !kernels;
          next_kernel := now +. every
      | _ -> ());
      let a0 = Trace.allocated_bytes () in
      let s = step () in
      alloc := !alloc +. Trace.allocated_bytes () -. a0;
      go (s :: acc)
    end
  in
  let samples = go [] in
  { samples; kernel_samples = !kernels; start = t0; wall_s = now_s () -. t0; alloc_bytes = !alloc }

let merge phases =
  {
    samples = List.concat_map (fun p -> p.samples) phases;
    kernel_samples = List.concat_map (fun p -> p.kernel_samples) phases;
    start = List.fold_left (fun acc p -> Float.min acc p.start) infinity phases;
    wall_s = List.fold_left (fun acc p -> Float.max acc p.wall_s) 0. phases;
    alloc_bytes = List.fold_left (fun acc p -> acc +. p.alloc_bytes) 0. phases;
  }

(* linear interpolation between closest ranks; nan on no samples *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = p *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = percentile 0.5

(* The phase cut into about one-second stretches of equal operation
   counts; the rate of each stretch, median over the stretches.  A burst of
   contention from outside the benchmark moves a few stretches, not the
   result. *)
let ops_per_s p =
  let ends = Array.of_list (List.map (fun s -> s.at) p.samples) in
  Array.sort compare ends;
  let n = Array.length ends in
  let k = max 1 (min n (int_of_float p.wall_s)) in
  let stretch i =
    let first = i * n / k and last = ((i + 1) * n / k) - 1 in
    let t0 = if first = 0 then p.start else ends.(first - 1) in
    float_of_int (last - first + 1) /. (ends.(last) -. t0)
  in
  if n = 0 then 0. else median (List.init k stretch)

let latencies cls samples = List.filter_map (fun s -> if s.cls = cls then Some s.ms else None) samples

(* VmHWM of a process, in MB *)
let peak_rss_mb pid =
  let path = match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let rec find () =
        match input_line ic with
        | exception End_of_file -> nan
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f" (fun kb -> kb /. 1024.)
        | _ -> find ()
      in
      find ()
