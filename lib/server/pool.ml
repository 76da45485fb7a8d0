(* FIFO job queue guarded by a mutex/condition pair; workers are domains
   looping dequeue-run. A job is a closure over its own result cell, so
   the queue is monomorphic while [submit] stays polymorphic. *)

module Obs = Hppa_obs.Obs

type instruments = {
  jobs : Obs.Counter.t;
  exceptions : Obs.Counter.t;
  wait : Obs.Histogram.t;
}

type 'ctx t = {
  queue : ('ctx -> unit) Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
  mutable domains : unit Domain.t list;
  n_workers : int;
  ins : instruments option;
}

let worker_loop t init () =
  let ctx = init () in
  let rec loop () =
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.closed do
      Condition.wait t.nonempty t.lock
    done;
    if Queue.is_empty t.queue && t.closed then Mutex.unlock t.lock
    else begin
      let job = Queue.pop t.queue in
      Mutex.unlock t.lock;
      job ctx;
      loop ()
    end
  in
  loop ()

let create ?obs ?(obs_labels = []) ~workers ~init () =
  if workers < 1 then invalid_arg "Pool.create: workers must be >= 1";
  let labels = obs_labels in
  let ins =
    Option.map
      (fun reg ->
        {
          jobs =
            Obs.Registry.counter reg ~labels
              ~help:"Jobs run by pool workers" "hppa_pool_jobs_total";
          exceptions =
            Obs.Registry.counter reg ~labels ~help:"Jobs that raised"
              "hppa_pool_job_exceptions_total";
          wait =
            Obs.Registry.histogram reg ~labels
              ~help:"Queue wait, submit to job start (log2 us buckets)"
              "hppa_pool_wait_us";
        })
      obs
  in
  let t =
    {
      queue = Queue.create ();
      lock = Mutex.create ();
      nonempty = Condition.create ();
      closed = false;
      domains = [];
      n_workers = workers;
      ins;
    }
  in
  (match obs with
  | None -> ()
  | Some reg ->
      Obs.Registry.fn_gauge reg ~labels
        ~help:"Jobs waiting in the pool queue" "hppa_pool_queue_depth"
        (fun () ->
          Mutex.lock t.lock;
          let n = Queue.length t.queue in
          Mutex.unlock t.lock;
          float_of_int n));
  t.domains <-
    List.init workers (fun _ -> Domain.spawn (worker_loop t init));
  t

let workers t = t.n_workers

(* The one job wrapper: counts the job, observes its queue wait, and
   swallows (counting) whatever it raises. *)
let enqueue t ~caller f =
  let submitted = Unix.gettimeofday () in
  let job ctx =
    (match t.ins with
    | None -> ()
    | Some ins ->
        Obs.Counter.incr ins.jobs;
        Obs.Histogram.observe ins.wait
          ((Unix.gettimeofday () -. submitted) *. 1e6));
    try f ctx
    with _ -> (
      match t.ins with
      | None -> ()
      | Some ins -> Obs.Counter.incr ins.exceptions)
  in
  Mutex.lock t.lock;
  if t.closed then begin
    Mutex.unlock t.lock;
    invalid_arg (caller ^ ": pool is shut down")
  end;
  Queue.push job t.queue;
  Condition.signal t.nonempty;
  Mutex.unlock t.lock

let post t f = enqueue t ~caller:"Pool.post" f

(* [post] plus a result cell: the job stores its outcome, then re-raises
   so the wrapper counts the exception; the submitter re-raises it on
   its own stack. *)
let submit t f =
  let cell = ref None in
  let done_lock = Mutex.create () in
  let done_cond = Condition.create () in
  enqueue t ~caller:"Pool.submit" (fun ctx ->
      let result = try Ok (f ctx) with exn -> Error exn in
      Mutex.lock done_lock;
      cell := Some result;
      Condition.signal done_cond;
      Mutex.unlock done_lock;
      match result with Ok _ -> () | Error exn -> raise exn);
  Mutex.lock done_lock;
  while Option.is_none !cell do
    Condition.wait done_cond done_lock
  done;
  Mutex.unlock done_lock;
  match Option.get !cell with Ok v -> v | Error exn -> raise exn

let shutdown t =
  Mutex.lock t.lock;
  let was_closed = t.closed in
  t.closed <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock;
  if not was_closed then List.iter Domain.join t.domains
