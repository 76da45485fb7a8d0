(* The service: one multiplexed event loop (non-blocking sockets driven
   by Unix.select) serving every connection, with plan compute sharded
   across worker domains by normalized-key hash. Requests pipeline: a
   connection may have up to [pipeline_depth] requests in flight, and
   replies come back in request order through per-request reply slots.
   See DESIGN.md "Async serving tier". *)

module Machine = Hppa_machine.Machine
module Obs = Hppa_obs.Obs
open Hppa

module Config = struct
  type endpoint = Unix_socket of string | Tcp of string * int

  type t = {
    endpoint : endpoint;
    shards : int;
    cache_capacity : int;
    fuel : int;
    pipeline_depth : int;
    backlog : int;
    tick_s : float;
    drain_grace_s : float;
    trace_path : string option;
    plans_path : string option;
    certified : bool;
  }

  let default =
    {
      endpoint = Unix_socket "hppa-serve.sock";
      shards = 2;
      cache_capacity = 4096;
      fuel = 1_000_000;
      pipeline_depth = 64;
      backlog = 128;
      tick_s = 0.05;
      drain_grace_s = 5.0;
      trace_path = None;
      plans_path = None;
      certified = false;
    }
end

let trace_capacity = 65536

(* One cache shard: an LRU slice plus a single-domain pool that owns
   every plan computation whose normalized key hashes here. The LRU has
   its own lock so the event loop can probe for hits directly; all
   *writes* to the slice happen on the shard's worker, so a hot key
   never contends across shards. *)
type shard = { cache : Lru.t; pool : Machine.t Lazy.t Pool.t }

type t = {
  cfg : Config.t;
  shards : shard array;
  artifacts : (string, Plan.artifact) Hashtbl.t;
      (* selector verdict per cached plan, keyed like the reply cache *)
  art_lock : Mutex.t;
  warmed : int ref;
  metrics : Metrics.t;
  obs : Obs.Registry.t;
  trace : Obs.Trace.t option;
  stopping : bool Atomic.t;
  started : float;
  mutable wake : Unix.file_descr option;
      (* write end of the event loop's wake pipe while [run] is live *)
  mutable live_conns : int;
  accepted : Obs.Counter.t;
}

(* ------------------------------------------------------------------ *)
(* Sharding                                                            *)

(* FNV-1a over the normalized cache key: cheap, stable across runs, and
   spreads the zipf head across shards. *)
let fnv1a key =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code c)))
          0x100000001b3L)
    key;
  Int64.to_int !h land max_int

let shard_index t key = fnv1a key mod Array.length t.shards
let shard t key = t.shards.(shard_index t key)

let sum_shards t f = Array.fold_left (fun n s -> n + f s.cache) 0 t.shards

(* Cacheable requests are keyed by their normalized form, so "MUL 7",
   "mul 7" and " MUL  7 " share one entry and one computation — and a
   batch lane shares the entry of the scalar request for the same
   operand. The cached value is the exact reply payload: hits are
   byte-identical to recomputes by construction. *)
let cache_key req = Format.asprintf "%a" Protocol.pp_request req

(* Map a strategy-layer request id (Autotune measurements record
   [Strategy.request_id]) back onto a cacheable protocol request. Only
   the shapes the protocol can express warm anything: signed constant
   multiplies and the d > 0 unsigned / d < 0 signed divide pairing DIV
   itself uses. *)
let warm_request id =
  let const tag =
    if String.length tag > 1 && tag.[0] = 'c' then
      Int32.of_string_opt (String.sub tag 1 (String.length tag - 1))
    else None
  in
  match String.split_on_char '.' id with
  | [ "mul"; tag; "s" ] -> Option.map (fun n -> Protocol.mul n) (const tag)
  | [ "div"; tag; "u" ] ->
      Option.bind (const tag) (fun d ->
          if d > 0l then Some (Protocol.div d) else None)
  | [ "div"; tag; "s" ] ->
      Option.bind (const tag) (fun d ->
          if d < 0l then Some (Protocol.div d) else None)
  | _ -> None

let cache_plan t key payload artifact =
  Lru.add (shard t key).cache key payload;
  Mutex.lock t.art_lock;
  Hashtbl.replace t.artifacts key artifact;
  Mutex.unlock t.art_lock

(* Compute one shard's cache misses, on that shard's worker domain.
   MUL/DIV lanes are pure selector calls; a run kernel's lanes carry
   run-time operands and go through Plan.run, which runs two or more of
   them as one Machine.Batch SoA dispatch (per-lane cycles equal the
   scalar engine's, so the reply bytes cannot differ from the scalar
   path). Successful lanes are cached here — on the owning worker —
   before the results travel back to the event loop. *)
let compute_misses (type lane) t (kernel : lane Protocol.kernel) mach
    (misses : (string * lane) list) =
  let require_certified = t.cfg.certified in
  let obs = t.obs in
  let results =
    match kernel with
    | Protocol.Kmul ->
        List.map
          (fun (key, n) -> (key, Plan.mul ~obs ~require_certified n))
          misses
    | Protocol.Kdiv ->
        List.map
          (fun (key, d) -> (key, Plan.div ~obs ~require_certified d))
          misses
    | Protocol.Krun { run; signed } ->
        List.map2
          (fun (key, _) r -> (key, r))
          misses
          (Plan.run ~obs ~require_certified (Lazy.force mach)
             ~fuel:t.cfg.fuel run ~signed (List.map snd misses))
  in
  List.iter
    (fun (key, r) ->
      match r with
      | Ok (payload, artifact) -> cache_plan t key payload artifact
      | Error _ -> ())
    results;
  List.map (fun (key, r) -> (key, Result.map fst r)) results

(* ------------------------------------------------------------------ *)
(* Payloads                                                            *)

let stats_payload t =
  let hits = sum_shards t Lru.hits
  and misses = sum_shards t Lru.misses
  and size = sum_shards t Lru.size
  and capacity = sum_shards t Lru.capacity
  and evictions = sum_shards t Lru.evictions in
  let probes = hits + misses in
  let hit_rate =
    if probes = 0 then 0.0 else float_of_int hits /. float_of_int probes
  in
  Printf.sprintf
    "STATS %s cache_hits=%d cache_misses=%d cache_hit_rate=%.4f \
     cache_size=%d cache_capacity=%d cache_evictions=%d workers=%d \
     uptime_s=%.1f"
    (Metrics.render t.metrics)
    hits misses hit_rate size capacity evictions
    (Array.length t.shards)
    (Unix.gettimeofday () -. t.started)

let metrics_payload t =
  Obs.Export.prometheus (Obs.Registry.snapshot t.obs) ^ "# EOF"

let is_scrape s =
  String.length s >= 1 && s.[0] = '#'
  (* every scrape starts with a # HELP/# TYPE comment *)

let is_batch_reply = Protocol.is_batch_reply

(* ------------------------------------------------------------------ *)
(* Staging: one parsed request becomes either an immediate reply or a
   set of per-shard jobs plus an assembly function. Both the blocking
   [respond] path and the event loop's pipelined path run the same
   staged plan, which is what keeps their reply bytes identical. *)

type staged =
  | Ready of string
  | Pending of {
      jobs :
        (int * (Machine.t Lazy.t -> (string * (string, string) result) list))
        list;
          (* (shard index, job); each job returns (key, lane result) *)
      assemble : (string, (string, string) result) Hashtbl.t -> string;
    }

let stage t (req : Protocol.request) =
  match req with
  | Protocol.Ping -> Ready (Protocol.ok "pong")
  | Protocol.Quit -> Ready (Protocol.ok "bye")
  | Protocol.Stats -> Ready (Protocol.ok (stats_payload t))
  (* Never cached: the scrape must observe live registry state. *)
  | Protocol.Metrics -> Ready (metrics_payload t)
  | Protocol.Eval (entry, args) ->
      let key = cache_key req in
      Pending
        {
          jobs =
            [
              ( shard_index t key,
                fun mach ->
                  [
                    ( key,
                      Plan.eval (Lazy.force mach) ~fuel:t.cfg.fuel entry args
                    );
                  ] );
            ];
          assemble =
            (fun tbl ->
              match Hashtbl.find_opt tbl key with
              | Some (Ok payload) -> Protocol.ok payload
              | Some (Error detail) -> Protocol.err detail
              | None -> Protocol.err "internal lane not computed");
        }
  | Protocol.Op { kernel; batch; lanes } -> (
      let keyed =
        List.map
          (fun lane ->
            let key = Protocol.lane_key kernel lane in
            (key, lane, Lru.find (shard t key).cache key))
          lanes
      in
      let seen = Hashtbl.create 16 in
      let misses =
        List.filter_map
          (fun (key, lane, hit) ->
            if hit = None && not (Hashtbl.mem seen key) then begin
              Hashtbl.replace seen key ();
              Some (key, lane)
            end
            else None)
          keyed
      in
      let lane_line tbl (key, _, hit) =
        match hit with
        | Some payload -> Protocol.ok payload
        | None -> (
            match Hashtbl.find_opt tbl key with
            | Some (Ok payload) -> Protocol.ok payload
            | Some (Error detail) -> Protocol.err detail
            | None -> Protocol.err "internal batch lane not computed")
      in
      let assemble tbl =
        if batch then
          let header =
            Protocol.ok
              (Printf.sprintf "%s k=%d" (Protocol.verb req)
                 (List.length lanes))
          in
          String.concat "\n" (header :: List.map (lane_line tbl) keyed)
        else
          match keyed with
          | [ one ] -> lane_line tbl one
          | _ -> Protocol.err "internal scalar lane count"
      in
      match misses with
      | [] -> Ready (assemble (Hashtbl.create 1))
      | _ ->
          (* Misses grouped by owning shard: one job per shard however
             many lanes miss there. *)
          let groups = Hashtbl.create 8 in
          List.iter
            (fun (key, lane) ->
              let si = shard_index t key in
              let prev =
                Option.value (Hashtbl.find_opt groups si) ~default:[]
              in
              Hashtbl.replace groups si ((key, lane) :: prev))
            misses;
          let jobs =
            Hashtbl.fold
              (fun si group acc ->
                ( si,
                  fun mach -> compute_misses t kernel mach (List.rev group) )
                :: acc)
              groups []
          in
          Pending { jobs; assemble })

(* Blocking execution of a staged request — the [respond] path (tests,
   fuzzing, the byte-identity oracle). *)
let run_staged t = function
  | Ready reply -> reply
  | Pending { jobs; assemble } ->
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun (si, job) ->
          let rs = Pool.submit t.shards.(si).pool job in
          List.iter (fun (k, r) -> Hashtbl.replace tbl k r) rs)
        jobs;
      assemble tbl

let record t ~verb ~reply ~t0 =
  let error = Protocol.is_err reply in
  let us = (Unix.gettimeofday () -. t0) *. 1e6 in
  Metrics.record ?verb t.metrics ~error ~us;
  match t.trace with
  | None -> ()
  | Some tr ->
      Obs.Trace.emit tr "request"
        [
          ("verb", Str (Option.value verb ~default:"(parse)"));
          ("error", Bool error);
          ("us", Float us);
        ]

let respond t line =
  let t0 = Unix.gettimeofday () in
  let parsed = Protocol.parse line in
  let reply =
    try
      match parsed with
      | Ok req -> run_staged t (stage t req)
      | Error detail -> Protocol.err detail
    with exn -> Protocol.err ("internal " ^ Printexc.to_string exn)
  in
  let verb =
    match parsed with Ok req -> Some (Protocol.verb req) | Error _ -> None
  in
  record t ~verb ~reply ~t0;
  reply

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let warm_compute t (req : Protocol.request) =
  match req with
  | Protocol.Op { kernel = Protocol.Kmul; lanes = [ n ]; _ } ->
      Some (Plan.mul ~obs:t.obs ~require_certified:t.cfg.certified n)
  | Protocol.Op { kernel = Protocol.Kdiv; lanes = [ d ]; _ } ->
      Some (Plan.div ~obs:t.obs ~require_certified:t.cfg.certified d)
  | _ -> None

(* Pre-compute the reply for every measured request in a BENCH_PLANS.json
   store (written by [bench plans] / {!Hppa_plan.Autotune.Store.save}):
   the first client to ask for a benchmarked plan hits the cache. An
   unreadable store or unparseable entry warms nothing — startup must
   not fail on a stale file. *)
let warm_start t path =
  match Hppa_plan.Autotune.Store.load path with
  | Error _ -> ()
  | Ok store ->
      let seen = Hashtbl.create 64 in
      List.iter
        (fun (m : Hppa_plan.Autotune.measurement) ->
          match warm_request m.Hppa_plan.Autotune.request with
          | None -> ()
          | Some req -> (
              let key = cache_key req in
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.replace seen key ();
                match warm_compute t req with
                | Some (Ok (payload, artifact)) ->
                    cache_plan t key payload artifact;
                    incr t.warmed
                | Some (Error _) | None -> ()
              end))
        (Hppa_plan.Autotune.Store.entries store)

let create (cfg : Config.t) =
  if cfg.shards < 1 then invalid_arg "Server.create: shards must be >= 1";
  if cfg.fuel < 1 then invalid_arg "Server.create: fuel must be >= 1";
  if cfg.cache_capacity < 1 then
    invalid_arg "Server.create: cache_capacity must be >= 1";
  if cfg.pipeline_depth < 1 then
    invalid_arg "Server.create: pipeline_depth must be >= 1";
  if not (cfg.tick_s > 0.0) then
    invalid_arg "Server.create: tick_s must be > 0";
  let obs = Obs.Registry.create () in
  let artifacts = Hashtbl.create 64 in
  let warmed = ref 0 in
  let started = Unix.gettimeofday () in
  (* Shard i gets an equal slice of the cache budget (first shards get
     the remainder); every shard holds at least one entry. The machine
     is built lazily inside each worker domain, so startup does not pay
     [shards] millicode resolutions up front. Worker machines keep
     their stats private: the server registry holds only server-level
     metrics, so scrapes stay cheap and unambiguous. *)
  let shards =
    Array.init cfg.shards (fun i ->
        let cap =
          max 1
            ((cfg.cache_capacity / cfg.shards)
            + if i < cfg.cache_capacity mod cfg.shards then 1 else 0)
        in
        {
          cache = Lru.create ~capacity:cap;
          pool =
            Pool.create ~obs
              ~obs_labels:[ ("shard", string_of_int i) ]
              ~workers:1
              ~init:(fun () -> lazy (Millicode.machine ()))
              ();
        })
  in
  let t =
    {
      cfg;
      shards;
      artifacts;
      art_lock = Mutex.create ();
      warmed;
      metrics = Metrics.create ~registry:obs ();
      obs;
      trace =
        Option.map
          (fun _ -> Obs.Trace.create ~capacity:trace_capacity)
          cfg.trace_path;
      stopping = Atomic.make false;
      started;
      wake = None;
      live_conns = 0;
      accepted =
        Obs.Registry.counter obs ~help:"Connections accepted"
          "hppa_serve_accepted_total";
    }
  in
  (* The plan cache and uptime are owned elsewhere; expose them as
     fn-backed metrics sampled at scrape time. The cache families
     aggregate over shards; per-shard occupancy is labelled. *)
  Obs.Registry.fn_counter obs ~help:"Plan cache hits"
    "hppa_serve_cache_hits_total" (fun () -> sum_shards t Lru.hits);
  Obs.Registry.fn_counter obs ~help:"Plan cache misses"
    "hppa_serve_cache_misses_total" (fun () -> sum_shards t Lru.misses);
  Obs.Registry.fn_counter obs ~help:"Plan cache evictions"
    "hppa_serve_cache_evictions_total" (fun () -> sum_shards t Lru.evictions);
  Obs.Registry.fn_gauge obs ~help:"Plan cache hit rate in [0, 1]"
    "hppa_serve_cache_hit_rate" (fun () ->
      let hits = sum_shards t Lru.hits and misses = sum_shards t Lru.misses in
      if hits + misses = 0 then 0.0
      else float_of_int hits /. float_of_int (hits + misses));
  Obs.Registry.fn_gauge obs ~help:"Plan cache entries" "hppa_serve_cache_size"
    (fun () -> float_of_int (sum_shards t Lru.size));
  Obs.Registry.fn_gauge obs ~help:"Plan cache capacity"
    "hppa_serve_cache_capacity" (fun () ->
      float_of_int (sum_shards t Lru.capacity));
  Array.iteri
    (fun i s ->
      Obs.Registry.fn_gauge obs ~help:"Plan cache entries per shard"
        ~labels:[ ("shard", string_of_int i) ]
        "hppa_serve_shard_cache_size" (fun () ->
          float_of_int (Lru.size s.cache)))
    t.shards;
  Obs.Registry.fn_gauge obs ~help:"Cache/compute shards (one domain each)"
    "hppa_serve_shards" (fun () -> float_of_int cfg.shards);
  Obs.Registry.fn_gauge obs ~help:"Worker domains" "hppa_serve_workers"
    (fun () -> float_of_int cfg.shards);
  Obs.Registry.fn_gauge obs ~help:"Max pipelined requests per connection"
    "hppa_serve_pipeline_depth" (fun () ->
      float_of_int cfg.pipeline_depth);
  Obs.Registry.fn_gauge obs ~help:"Open client connections"
    "hppa_serve_connections" (fun () -> float_of_int t.live_conns);
  Obs.Registry.fn_gauge obs ~help:"Seconds since server creation"
    "hppa_serve_uptime_seconds" (fun () -> Unix.gettimeofday () -. started);
  Obs.Registry.fn_gauge obs ~help:"Cached plan artifacts (selector verdicts)"
    "hppa_serve_plan_artifacts" (fun () ->
      float_of_int (Hashtbl.length artifacts));
  Obs.Registry.fn_gauge obs
    ~help:"Cached plan artifacts carrying a certificate digest"
    "hppa_serve_plan_artifacts_certified" (fun () ->
      float_of_int
        (Hashtbl.fold
           (fun _ (a : Plan.artifact) n ->
             if a.Plan.cert_digest <> None then n + 1 else n)
           artifacts 0));
  Obs.Registry.fn_gauge obs
    ~help:"Plans pre-computed at startup from BENCH_PLANS.json"
    "hppa_serve_plans_warmed" (fun () -> float_of_int !warmed);
  (match cfg.plans_path with None -> () | Some path -> warm_start t path);
  t

let config t = t.cfg
let registry t = t.obs

let artifacts t =
  Mutex.lock t.art_lock;
  let arts = Hashtbl.fold (fun k a acc -> (k, a) :: acc) t.artifacts [] in
  Mutex.unlock t.art_lock;
  List.sort (fun (a, _) (b, _) -> compare a b) arts

let shutdown_pool t = Array.iter (fun s -> Pool.shutdown s.pool) t.shards

(* ------------------------------------------------------------------ *)
(* Event loop                                                          *)

(* Byte queue: contiguous bytes with an O(1) amortized append and a
   front cursor, so the per-connection buffers never rescan or recopy
   what select-sized reads already delivered. *)
module Bq = struct
  type t = { mutable data : Bytes.t; mutable start : int; mutable len : int }

  let create n = { data = Bytes.create (max 16 n); start = 0; len = 0 }
  let length t = t.len
  let is_empty t = t.len = 0

  let reserve t extra =
    let cap = Bytes.length t.data in
    if t.start + t.len + extra > cap then
      if t.len + extra <= cap / 2 then begin
        (* plenty of dead space up front: slide instead of growing *)
        Bytes.blit t.data t.start t.data 0 t.len;
        t.start <- 0
      end
      else begin
        let cap' = ref (max 16 (2 * cap)) in
        while t.len + extra > !cap' do
          cap' := 2 * !cap'
        done;
        let data' = Bytes.create !cap' in
        Bytes.blit t.data t.start data' 0 t.len;
        t.data <- data';
        t.start <- 0
      end

  let add_subbytes t b off n =
    reserve t n;
    Bytes.blit b off t.data (t.start + t.len) n;
    t.len <- t.len + n

  let add_string t s =
    let n = String.length s in
    reserve t n;
    Bytes.blit_string s 0 t.data (t.start + t.len) n;
    t.len <- t.len + n

  (* Relative index of the first '\n' at or past [from], or -1. *)
  let index_newline t from =
    let stop = t.start + t.len in
    let i = ref (t.start + from) in
    while !i < stop && Bytes.get t.data !i <> '\n' do
      incr i
    done;
    if !i < stop then !i - t.start else -1

  let sub_string t n = Bytes.sub_string t.data t.start n

  let drop t n =
    t.start <- t.start + n;
    t.len <- t.len - n;
    if t.len = 0 then t.start <- 0
end

(* One pipelined request: the slot is queued at parse time and filled
   when the reply is ready, so popping completed slots in queue order
   gives strictly ordered replies whatever order the shards finish. *)
type slot = { mutable reply : string option }

type conn = {
  fd : Unix.file_descr;
  rbuf : Bq.t;
  mutable scanned : int;  (* rbuf prefix known to hold no newline *)
  mutable overflowing : bool;  (* discarding an over-long line *)
  wbuf : Bq.t;
  inflight : slot Queue.t;
  mutable quitting : bool;  (* QUIT parsed: flush then close *)
  mutable eof : bool;  (* peer half-closed: drain then close *)
  mutable dead : bool;  (* I/O error: close, discard *)
}

type loop = {
  srv : t;
  listen_fd : Unix.file_descr;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  completions : (unit -> unit) Queue.t;
  comp_lock : Mutex.t;
  mutable wake_pending : bool;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  mutable listen_open : bool;
  mutable stop_time : float option;
}

let new_conn fd =
  {
    fd;
    rbuf = Bq.create 4096;
    scanned = 0;
    overflowing = false;
    wbuf = Bq.create 4096;
    inflight = Queue.create ();
    quitting = false;
    eof = false;
    dead = false;
  }

(* Deliver a closure to the event-loop thread. The single coalesced
   wake byte keeps the pipe from ever filling, so workers never block
   here. *)
let post_completion lp f =
  Mutex.lock lp.comp_lock;
  Queue.push f lp.completions;
  if not lp.wake_pending then begin
    lp.wake_pending <- true;
    try ignore (Unix.write_substring lp.wake_w "w" 0 1) with _ -> ()
  end;
  Mutex.unlock lp.comp_lock

(* Drain order matters: empty the pipe before taking the queue, so any
   byte written after the take leaves a wakeup pending for the next
   iteration instead of being eaten. *)
let take_completions lp =
  let chunk = Bytes.create 64 in
  (try
     while Unix.read lp.wake_r chunk 0 64 > 0 do
       ()
     done
   with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | Unix.Unix_error _ -> ());
  Mutex.lock lp.comp_lock;
  let local = Queue.create () in
  Queue.transfer lp.completions local;
  lp.wake_pending <- false;
  Mutex.unlock lp.comp_lock;
  local

(* Submit one request line from [conn]'s pipeline. The reply slot is
   queued immediately (order!), then filled either synchronously
   (parse errors, PING/STATS/..., full cache hits) or by the last
   shard job's completion. *)
let submit_async t lp conn line =
  let t0 = Unix.gettimeofday () in
  let slot = { reply = None } in
  Queue.push slot conn.inflight;
  let parsed = Protocol.parse line in
  let verb =
    match parsed with Ok req -> Some (Protocol.verb req) | Error _ -> None
  in
  let finish reply =
    slot.reply <- Some reply;
    record t ~verb ~reply ~t0
  in
  let staged =
    try
      match parsed with
      | Ok req -> stage t req
      | Error detail -> Ready (Protocol.err detail)
    with exn -> Ready (Protocol.err ("internal " ^ Printexc.to_string exn))
  in
  match staged with
  | Ready reply ->
      finish reply;
      if parsed = Ok Protocol.Quit then conn.quitting <- true
  | Pending { jobs; assemble } ->
      let tbl = Hashtbl.create 16 in
      let remaining = ref (List.length jobs) in
      let failed = ref None in
      List.iter
        (fun (si, job) ->
          Pool.post t.shards.(si).pool (fun mach ->
              let r = try Ok (job mach) with exn -> Error exn in
              post_completion lp (fun () ->
                  (match r with
                  | Ok rs ->
                      List.iter (fun (k, v) -> Hashtbl.replace tbl k v) rs
                  | Error exn -> failed := Some exn);
                  decr remaining;
                  if !remaining = 0 then
                    finish
                      (match !failed with
                      | Some exn ->
                          Protocol.err
                            ("internal " ^ Printexc.to_string exn)
                      | None -> (
                          try assemble tbl
                          with exn ->
                            Protocol.err
                              ("internal " ^ Printexc.to_string exn))))))
        jobs

(* Pull complete lines out of the read buffer while pipeline capacity
   lasts. A partial line longer than [max_line_bytes] is discarded up
   to its newline and answered with one oversized error (same resync
   the threaded reader performed). *)
let advance t lp conn =
  let continue = ref true in
  while
    !continue && (not conn.quitting)
    && Queue.length conn.inflight < t.cfg.pipeline_depth
  do
    match Bq.index_newline conn.rbuf conn.scanned with
    | -1 ->
        if Bq.length conn.rbuf > Protocol.max_line_bytes then begin
          conn.scanned <- 0;
          Bq.drop conn.rbuf (Bq.length conn.rbuf);
          conn.overflowing <- true
        end
        else conn.scanned <- Bq.length conn.rbuf;
        continue := false
    | i ->
        let line = Bq.sub_string conn.rbuf i in
        Bq.drop conn.rbuf (i + 1);
        conn.scanned <- 0;
        if conn.overflowing then begin
          conn.overflowing <- false;
          Queue.push
            {
              reply =
                Some
                  (Protocol.err
                     (Printf.sprintf "oversized request exceeds %d bytes"
                        Protocol.max_line_bytes));
            }
            conn.inflight
        end
        else submit_async t lp conn line
  done

(* Move the completed prefix of the reply queue into the write buffer —
   this is the ordering guarantee: slot k's bytes are staged before
   slot k+1's are even looked at. *)
let pump conn =
  while
    (not (Queue.is_empty conn.inflight))
    && (Queue.peek conn.inflight).reply <> None
  do
    match (Queue.pop conn.inflight).reply with
    | Some reply ->
        Bq.add_string conn.wbuf reply;
        Bq.add_string conn.wbuf "\n"
    | None -> ()
  done

let try_write conn =
  let continue = ref true in
  while !continue && not (Bq.is_empty conn.wbuf) do
    match
      Unix.write conn.fd conn.wbuf.Bq.data conn.wbuf.Bq.start
        (min conn.wbuf.Bq.len 65536)
    with
    | n -> Bq.drop conn.wbuf n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ ->
        conn.dead <- true;
        continue := false
  done

let conn_read conn chunk =
  let continue = ref true in
  while !continue do
    match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
    | 0 ->
        conn.eof <- true;
        continue := false
    | n ->
        Bq.add_subbytes conn.rbuf chunk 0 n;
        if n < Bytes.length chunk then continue := false
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ ->
        conn.dead <- true;
        continue := false
  done

let close_conn lp conn =
  Hashtbl.remove lp.conns conn.fd;
  lp.srv.live_conns <- lp.srv.live_conns - 1;
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

let accept_new lp =
  let continue = ref true in
  while !continue do
    match Unix.accept lp.listen_fd with
    | fd, _ ->
        Unix.set_nonblock fd;
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        Hashtbl.replace lp.conns fd (new_conn fd);
        lp.srv.live_conns <- lp.srv.live_conns + 1;
        Obs.Counter.incr lp.srv.accepted
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> continue := false
  done

let close_listen lp =
  if lp.listen_open then begin
    lp.listen_open <- false;
    (try Unix.close lp.listen_fd with Unix.Unix_error _ -> ());
    match lp.srv.cfg.endpoint with
    | Config.Unix_socket path -> (
        try Unix.unlink path with Unix.Unix_error _ -> ())
    | Config.Tcp _ -> ()
  end

let bind_listen (cfg : Config.t) =
  match cfg.endpoint with
  | Config.Unix_socket path ->
      (* A stale socket file from a previous run would make bind fail;
         only unlink things that actually are sockets. *)
      (match Unix.lstat path with
      | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
      | _ -> ()
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd cfg.backlog;
      fd
  | Config.Tcp (host, port) ->
      let addr =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> Unix.inet_addr_loopback
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (addr, port));
      Unix.listen fd cfg.backlog;
      fd

let stop t =
  Atomic.set t.stopping true;
  match t.wake with
  | Some fd -> ( try ignore (Unix.write_substring fd "s" 0 1) with _ -> ())
  | None -> ()

let write_trace t =
  match (t.trace, t.cfg.trace_path) with
  | Some tr, Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> Obs.Trace.write_jsonl tr oc)
  | _ -> ()

let loop_iter t lp chunk =
  (* 1. Run completions posted by shard workers (they fill reply
     slots). *)
  Queue.iter (fun f -> f ()) (take_completions lp);
  let stopping = Atomic.get t.stopping in
  if stopping && lp.stop_time = None then begin
    lp.stop_time <- Some (Unix.gettimeofday ());
    (* Refuse new connections immediately; in-flight requests drain. *)
    close_listen lp
  end;
  let grace_exceeded =
    match lp.stop_time with
    | Some t0 -> Unix.gettimeofday () -. t0 > t.cfg.drain_grace_s
    | None -> false
  in
  (* 2. Service every connection: stage freed pipeline slots, pump
     ordered replies, write opportunistically. *)
  let live = Hashtbl.fold (fun _ c acc -> c :: acc) lp.conns [] in
  List.iter
    (fun c ->
      if not c.dead then begin
        advance t lp c;
        pump c;
        try_write c
      end)
    live;
  (* 3. Close what is finished (or everything, past the drain grace). *)
  List.iter
    (fun c ->
      if
        c.dead || grace_exceeded
        || ((c.eof || c.quitting || stopping)
           && Queue.is_empty c.inflight
           && Bq.is_empty c.wbuf)
      then close_conn lp c)
    live;
  (* 4. Wait for readiness: the listener (unless stopping), the wake
     pipe, connections with pipeline capacity, and connections with
     backed-up writes. *)
  let rd = ref [ lp.wake_r ] in
  if lp.listen_open then rd := lp.listen_fd :: !rd;
  let wr = ref [] in
  Hashtbl.iter
    (fun fd c ->
      if
        (not stopping) && (not c.eof) && (not c.quitting) && (not c.dead)
        && Queue.length c.inflight < t.cfg.pipeline_depth
      then rd := fd :: !rd;
      if (not (Bq.is_empty c.wbuf)) && not c.dead then wr := fd :: !wr)
    lp.conns;
  match Unix.select !rd !wr [] t.cfg.tick_s with
  | rds, wrs, _ ->
      List.iter
        (fun fd ->
          if fd = lp.listen_fd then (if lp.listen_open then accept_new lp)
          else if fd = lp.wake_r then () (* drained next iteration *)
          else
            match Hashtbl.find_opt lp.conns fd with
            | Some c -> conn_read c chunk
            | None -> ())
        rds;
      List.iter
        (fun fd ->
          match Hashtbl.find_opt lp.conns fd with
          | Some c -> try_write c
          | None -> ())
        wrs
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let run t =
  (* A client closing mid-write must not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listen_fd = bind_listen t.cfg in
  Unix.set_nonblock listen_fd;
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  t.wake <- Some wake_w;
  let lp =
    {
      srv = t;
      listen_fd;
      wake_r;
      wake_w;
      completions = Queue.create ();
      comp_lock = Mutex.create ();
      wake_pending = false;
      conns = Hashtbl.create 64;
      listen_open = true;
      stop_time = None;
    }
  in
  let chunk = Bytes.create 65536 in
  while not (Atomic.get t.stopping && Hashtbl.length lp.conns = 0) do
    loop_iter t lp chunk
  done;
  close_listen lp;
  Hashtbl.iter (fun _ c -> c.dead <- true) lp.conns;
  Hashtbl.fold (fun _ c acc -> c :: acc) lp.conns []
  |> List.iter (close_conn lp);
  shutdown_pool t;
  t.wake <- None;
  (try Unix.close wake_w with Unix.Unix_error _ -> ());
  (try Unix.close wake_r with Unix.Unix_error _ -> ());
  write_trace t

let pp_dump ppf t =
  let arts = artifacts t in
  let certified =
    List.length (List.filter (fun (_, a) -> a.Plan.cert_digest <> None) arts)
  in
  Format.fprintf ppf
    "@[<v>-- hppa-serve final report --@,%a@,cache: %d/%d entries, %d hits, \
     %d misses, %d evictions, hit rate %.2f%%@,shards: %d@,plans: %d \
     artifacts (%d certified), %d warmed@]"
    Metrics.pp_dump t.metrics (sum_shards t Lru.size)
    (sum_shards t Lru.capacity)
    (sum_shards t Lru.hits) (sum_shards t Lru.misses)
    (sum_shards t Lru.evictions)
    (let h = sum_shards t Lru.hits and m = sum_shards t Lru.misses in
     if h + m = 0 then 0.0 else 100.0 *. float_of_int h /. float_of_int (h + m))
    (Array.length t.shards)
    (List.length arts) certified !(t.warmed)
