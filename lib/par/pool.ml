type t = {
  jobs : int;
  m : Mutex.t;
  work : Condition.t;  (* signalled when a job is queued or on stop *)
  queue : (unit -> unit) Queue.t;  (* submitted jobs, not yet started *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

type 'a outcome = Value of 'a | Raised of exn * Printexc.raw_backtrace

type 'a job = {
  jm : Mutex.t;
  jc : Condition.t;
  mutable result : 'a outcome option;  (* [None] while the job is pending *)
}

(* Each worker pops and runs one submitted job at a time.  A job closure
   owns its exceptions (it stores them into the job cell), so a raise here
   is a bug. *)
let worker t =
  let rec loop () =
    Mutex.lock t.m;
    while (not t.stop) && Queue.is_empty t.queue do
      Condition.wait t.work t.m
    done;
    if t.stop then Mutex.unlock t.m
    else begin
      let f = Queue.pop t.queue in
      Mutex.unlock t.m;
      f ();
      loop ()
    end
  in
  loop ()

let create ~jobs =
  let jobs = max 1 jobs in
  let t =
    {
      jobs;
      m = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      stop = false;
      workers = [];
    }
  in
  if jobs > 1 then
    t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let fulfill j outcome =
  Mutex.lock j.jm;
  j.result <- Some outcome;
  Condition.broadcast j.jc;
  Mutex.unlock j.jm

let submit t f =
  if t.stop then invalid_arg "Pool.submit: pool is shut down";
  let j = { jm = Mutex.create (); jc = Condition.create (); result = None } in
  let closure () =
    match f () with
    | v -> fulfill j (Value v)
    | exception e -> fulfill j (Raised (e, Printexc.get_raw_backtrace ()))
  in
  if t.jobs <= 1 then closure ()
  else begin
    Mutex.lock t.m;
    Queue.push closure t.queue;
    Condition.broadcast t.work;
    Mutex.unlock t.m
  end;
  j

let is_done j =
  Mutex.lock j.jm;
  let r = j.result <> None in
  Mutex.unlock j.jm;
  r

let await j =
  Mutex.lock j.jm;
  while j.result = None do
    Condition.wait j.jc j.jm
  done;
  let r = j.result in
  Mutex.unlock j.jm;
  match r with
  | Some (Value v) -> v
  | Some (Raised (e, bt)) -> Printexc.raise_with_backtrace e bt
  | None -> assert false

let shutdown t =
  if not t.stop then begin
    Mutex.lock t.m;
    t.stop <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.m;
    List.iter Domain.join t.workers;
    t.workers <- [];
    (* a worker that had already popped a job finished it before joining;
       jobs still queued run here so no [await] is left hanging *)
    Queue.iter (fun f -> f ()) t.queue;
    Queue.clear t.queue
  end

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
