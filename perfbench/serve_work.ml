(* serve_hot and serve_miss: load through the real hppa-serve socket
   path, a fresh daemon for every set-up, every reply checked. *)

module Server = Hppa_server.Server
module Protocol = Hppa_server.Protocol
module Lru = Hppa_server.Lru
module Plan = Hppa_server.Plan
module Strategy = Hppa_plan.Strategy
module Selector = Hppa_plan.Selector
module Samples = Measure.Samples
module Span = Measure.Span

type env = {
  exe : string;  (** the hppa-serve binary *)
  sock : string;  (** socket path, relative to the checkout *)
  seed : int;
  seconds : float;
  trace : bool;
  outcome : Report.outcome;
  daemon_cpu : int option;
      (** the CPU the daemon runs on, the benchmark itself on another:
          left to the scheduler, where each runs changes from run to run,
          and a request costs the daemon a third less CPU when the client
          shares its CPU *)
}

(* Fixed workload shape. *)
let setups = 3
let hot_conns = 2
let hot_cache = 4096
let hot_depth = 16  (* closed-loop pipeline depth per connection *)
let open_rate = 4000.  (* offered requests per second, open-loop phase *)
let miss_cache = 64
(* One client with one request in flight: a miss's time is then its own
   plan time, not a wait behind another client's plan on the same shard
   (which shard a key lands on is the daemon's hash). *)
let miss_conns = 1
(* serve_miss's figures cover the first rounds of keys, the same keys in
   every run (in an order the seed picks). A run goes on past its
   seconds until they are done, but not past [miss_cap] seconds. *)
let miss_rounds = 10
let miss_cap = 120.
let window = 0.25  (* seconds; serve_hot's figures are taken over windows (Measure.slow_rate) *)
let open_window = 0.25  (* 1000 requests at [open_rate]: a p99 over 10 *)
let miss_replay_keys = 64  (* keys replayed in-process by the traced run *)

(* ------------------------------------------------------------------ *)
(* A daemon with its connections and the replies it has sent            *)

type daemon = {
  srv : Client.server;
  cs : Client.conn list;
  mutable replies : int;
  mutable errors : int;
}

let count d reply =
  d.replies <- d.replies + 1;
  if List.exists (Check.starts_with ~prefix:"ERR") reply then d.errors <- d.errors + 1

let start env ~cache ~conns =
  let srv = Client.spawn ?cpu:env.daemon_cpu ~exe:env.exe ~sock:env.sock ~cache () in
  {
    srv;
    cs = List.init conns (fun _ -> Client.open_conn env.sock);
    replies = 0;
    errors = 0;
  }

let stop d =
  List.iter Client.close_conn d.cs;
  Client.stop d.srv

let request d line =
  let r = Client.request (List.hd d.cs) line in
  count d r;
  r

(* Send [lines] pipelined over the connections; replies in input order. *)
let exchange d lines =
  let lines = Array.of_list lines in
  let out = Array.make (Array.length lines) [] in
  let cs = Array.of_list d.cs in
  Array.iteri
    (fun i l -> Client.enqueue cs.(i mod Array.length cs) ~due:0. (string_of_int i) l)
    lines;
  Array.iter Client.flush cs;
  while Client.outstanding d.cs do
    Client.poll d.cs ~timeout:1.0 (fun _ p reply _ ->
        count d reply;
        out.(int_of_string p.Client.tag) <- reply)
  done;
  Array.to_list out

let stats d =
  match request d "STATS" with
  | [ r ] when Check.starts_with ~prefix:"OK STATS" r -> r
  | r -> failwith ("bad STATS reply: " ^ String.concat " / " r)

let stat st key =
  match Check.field st key with Some v -> float_of_string v | None -> nan

let scrape d =
  let text = String.concat "\n" (request d "METRICS") in
  match Hppa_obs.Obs.Export.parse_prometheus text with
  | Ok samples -> samples
  | Error e -> failwith ("METRICS scrape does not parse: " ^ e)

(* The per-layer figures read from the daemon's own counters: the last
   STATS reply [st] and a METRICS scrape. *)
let server_counters d st ~hits ~misses ~diffs =
  let samples = scrape d in
  let sum name =
    List.fold_left (fun acc (n, _, v) -> if n = name then acc +. v else acc) 0. samples
  in
  let waits = sum "hppa_pool_wait_us_count" in
  [
    ("server.cache.hit_ratio", hits /. (hits +. misses));
    ("server.cache.evictions", stat st "cache_evictions");
    ("server.cross_daemon_diffs", float_of_int diffs);
    ("server.pool.wait_us", if waits = 0. then 0. else sum "hppa_pool_wait_us_sum" /. waits);
    ("server.pool.jobs", sum "hppa_pool_jobs_total");
  ]

(* The server's request counters must equal what this client received
   before the STATS request: requests = ok + errors. *)
let check_requests env d st =
  let r = stat st "requests" and e = stat st "errors" in
  (* the STATS reply itself is counted by the client, not yet by the server *)
  let replies = d.replies - 1 in
  if r <> float_of_int replies || e <> float_of_int d.errors then
    Report.fail env.outcome
      (Printf.sprintf "server counted requests=%.0f errors=%.0f; client saw %d replies, %d errors"
         r e replies d.errors)

(* Set up [setups] times, each on a fresh daemon, and keep the last.
   Returns the daemon, the replies of every set-up's [warm] (last
   first) and the median set-up time: the daemon's CPU seconds from its
   start to the end of [warm]. *)
let repeated_setup env ~cache ~conns ~warm =
  let times = Array.make setups 0. in
  let rec go i prev acc =
    Option.iter stop prev;
    let d = start env ~cache ~conns in
    let w = warm d in
    times.(i) <- Client.cpu_s d.srv;
    if i + 1 = setups then (d, w :: acc) else go (i + 1) (Some d) (w :: acc)
  in
  let d, warms = go 0 None [] in
  (d, warms, Measure.median times)

(* Percentiles of per-request times, in microseconds. *)
let pct_us p xs = Measure.percentile p xs *. 1e6

(* The replies of the last set-up, and how many keys an earlier set-up's
   daemon answered with other bytes. Such a reply is checked on its own;
   when it passes too, the plan differs but not the result, so the
   difference is a per-layer count, not a failed operation. *)
let compare_setups o warms =
  match warms with
  | last :: earlier ->
      let diffs = ref 0 in
      List.iter
        (List.iter2
           (fun (_, want) (line, got) ->
             if got <> want then begin
               incr diffs;
               Report.tally o (Result.map ignore (Check.check_scalar_reply ~line got))
             end)
           last)
        earlier;
      (last, !diffs)
  | [] -> ([], 0)

(* ------------------------------------------------------------------ *)
(* serve_hot                                                            *)

(* Every pool key once, the first alone so the lazy tables are built
   before requests run concurrently on both shards. *)
let warm_hot (pool : Gen.hot) d =
  let keys = Array.to_list pool.Gen.keys in
  let first = List.hd keys in
  let r0 = request d first in
  List.combine keys (r0 :: exchange d (List.tl keys))

let poisson_arrivals ~seed ~rate ~duration =
  let g = Gen.rng ~seed 20 in
  let rec go t acc =
    let t = t -. (log (1. -. Hppa_dist.Prng.float01 g) /. rate) in
    if t >= duration then Array.of_list (List.rev acc) else go t (t :: acc)
  in
  go 0. []

(* serve_hot's seconds: closed-loop saturation, one request at a time,
   then the open loop. *)
let closed_share = 0.4
let ping_share = 0.3

let hot env =
  let o = env.outcome in
  let pool = Gen.hot_pool () in
  let d, warms, setup_s =
    repeated_setup env ~cache:hot_cache ~conns:hot_conns ~warm:(fun d ->
        List.map (fun (l, r) -> (l, String.concat "\n" r)) (warm_hot pool d))
  in
  Fun.protect ~finally:(fun () -> stop d) @@ fun () ->
  let warmed, diffs = compare_setups o warms in
  (* Check every warmed reply independently; the timed phase then only
     has to match these bytes. *)
  let scalar = Hashtbl.create 256 in
  let cycles = ref 0 and runs = ref 0 in
  List.iter
    (fun (line, reply) ->
      let v = Check.check_scalar_reply ~line reply in
      Report.tally o (Result.map ignore v);
      match v with
      | Ok (c, n) ->
          if not (Check.starts_with ~prefix:"W64" line) then begin
            cycles := !cycles + c;
            runs := !runs + n
          end;
          Hashtbl.replace scalar line reply
      | Error _ -> ())
    warmed;
  let check line reply =
    count d reply;
    Report.tally o
      (match (Client.shape_of line, reply) with
      | Client.Batch, _ -> Check.check_batch_reply ~line ~scalar:(Hashtbl.find_opt scalar) reply
      | _, [ r ] when Hashtbl.find_opt scalar line = Some r -> Ok ()
      | _ -> Error (line ^ ": reply differs from its checked warm reply"))
  in
  let st0 = stats d in
  (* Phase 1, closed-loop saturation: replies per daemon CPU second (and
     per wall second), over windows. *)
  let marks = ref [] and replies = ref 0 in
  let mark now = marks := (float_of_int !replies, now, Client.cpu_s d.srv) :: !marks in
  mark (Measure.now ());
  let next_mark = ref (Measure.now () +. window) in
  Client.closed_loop d.cs ~depth:hot_depth ~duration:(env.seconds *. closed_share)
    ~next:(Gen.hot_stream pool ~seed:env.seed ~stream:1)
    ~on_reply:(fun line reply ~due:_ ~now ->
      check line reply;
      incr replies;
      if now >= !next_mark then begin
        mark now;
        next_mark := now +. window
      end);
  let rates f =
    match List.rev !marks with
    | [] -> [||]
    | first :: rest ->
        let _, rs =
          List.fold_left (fun (prev, acc) m -> (m, f prev m :: acc)) (first, []) rest
        in
        Array.of_list rs
  in
  let per_cpu = rates (fun (n0, _, c0) (n1, _, c1) -> (n1 -. n0) /. (c1 -. c0))
  and per_wall = rates (fun (n0, t0, _) (n1, t1, _) -> (n1 -. n0) /. (t1 -. t0)) in
  (* Phase 2, one request at a time: the daemon CPU each request costs,
     and its round trip. *)
  let cpu = Samples.create () and rtt = Samples.create () and at = Samples.create () in
  let t0 = Measure.now () in
  let stop_at = t0 +. (env.seconds *. ping_share) in
  Client.ping_pong d.srv (List.hd d.cs)
    ~go:(fun () -> Measure.now () < stop_at)
    ~next:(Gen.hot_stream pool ~seed:env.seed ~stream:3)
    ~on_reply:(fun line reply ~wall ~cpu:c ->
      check line reply;
      Samples.add cpu c;
      Samples.add rtt wall;
      Samples.add at (Measure.now ()));
  let in_windows xs = Measure.windows ~width:window ~t0 ~t1:stop_at (Samples.to_array at) (Samples.to_array xs) in
  let slow_cpu = Measure.slow_times (in_windows cpu) and slow_rtt = Measure.slow_times (in_windows rtt) in
  (* Phase 3, open loop at a fixed offered rate: wall latency from each
     request's scheduled send. *)
  let open_s = env.seconds *. (1. -. closed_share -. ping_share) in
  let lat = Samples.create () and due_at = Samples.create () in
  let t0 = Measure.now () in
  let lag =
    Client.open_loop d.cs
      ~arrivals:(poisson_arrivals ~seed:env.seed ~rate:open_rate ~duration:open_s)
      ~next:(Gen.hot_stream pool ~seed:env.seed ~stream:2)
      ~on_reply:(fun line reply ~due ~now ->
        check line reply;
        Samples.add lat ((now -. due) *. 1e6);
        Samples.add due_at due)
  in
  let st1 = stats d in
  check_requests env d st1;
  let hits = stat st1 "cache_hits" -. stat st0 "cache_hits"
  and misses = stat st1 "cache_misses" -. stat st0 "cache_misses" in
  if misses <> 0. then
    Report.fail o (Printf.sprintf "serve_hot timed phase missed the cache %.0f times" misses);
  let lat = Samples.to_array lat in
  let opened = Measure.windows ~width:open_window ~t0 ~t1:(t0 +. open_s) (Samples.to_array due_at) lat in
  let e2e =
    [
      ("setup_s", setup_s);
      ("ops_per_s", Measure.slow_rate Fun.id per_cpu);
      ("p50_us", pct_us 50. slow_cpu);
      ("p90_us", pct_us 90. slow_cpu);
      ("p99_us", pct_us 99. slow_cpu);
      ("wall_ops_per_s", Measure.slow_rate Fun.id per_wall);
      ("wall_p50_us", pct_us 50. slow_rtt);
      ("wall_p90_us", pct_us 90. slow_rtt);
      ("cycles_mean", float_of_int !cycles /. float_of_int (max 1 !runs));
    ]
  in
  if not env.trace then (e2e, [])
  else begin
    let counters = server_counters d st1 ~hits ~misses ~diffs in
    (* The same stream, replayed in-process against each layer. *)
    let srv =
      Server.create
        { Server.Config.default with Server.Config.shards = 2; cache_capacity = hot_cache }
    in
    Fun.protect ~finally:(fun () -> Server.shutdown_pool srv) @@ fun () ->
    Array.iter (fun k -> ignore (Server.respond srv k)) pool.Gen.keys;
    let next = Gen.hot_stream pool ~seed:env.seed ~stream:2 in
    let lines = Array.init (Array.length lat) (fun _ -> next ()) in
    let lru = Lru.create ~capacity:hot_cache in
    let keys_of line =
      match Protocol.parse line with
      | Ok (Protocol.Op { kernel; lanes; _ }) -> List.map (Protocol.lane_key kernel) lanes
      | _ -> []
    in
    Array.iter (fun l -> List.iter (fun k -> Lru.add lru k l) (keys_of l)) lines;
    Array.iteri
      (fun i line ->
        Span.set_request i;
        Span.with_span "bench.request" (fun () ->
            ignore (Span.with_span "server.protocol.parse" (fun () -> Protocol.parse line));
            ignore (Span.with_span "server.respond" (fun () -> Server.respond srv line));
            List.iter
              (fun k -> ignore (Span.with_span "server.lru.find" (fun () -> Lru.find lru k)))
              (keys_of line)))
      lines;
    let self = Span.self_times () in
    let respond_p50 = Measure.median (self "server.respond") *. 1e6 in
    ( e2e,
      counters
      @ [
        ("server.protocol.parse_ns", Measure.median (self "server.protocol.parse") *. 1e9);
        ("server.respond_us", respond_p50);
        ("server.loop_us", Measure.median lat -. respond_p50);
        ("server.lru.find_ns", Measure.median (self "server.lru.find") *. 1e9);
        ("bench.open_loop_p50_us", Measure.window_median (Measure.percentile 50.) opened);
        ("bench.open_loop_p99_us", Measure.window_median (Measure.percentile 99.) opened);
        ("bench.gen_lag_p99_us", Measure.percentile 99. lag *. 1e6);
      ] )
  end

(* ------------------------------------------------------------------ *)
(* serve_miss                                                           *)

(* The traced run's in-process replay: the first timed keys, dealt
   round-robin to four groups so that every layer sees keys no earlier
   call has planned (chain search memoises per constant). *)
let replay_miss keys =
  Span.reset ();
  ignore (Hppa.Chain_rules.find 3);
  let candidates = Samples.create () and steps = Samples.create () in
  List.iteri
    (fun i line ->
      Span.set_request i;
      let verb, c =
        match String.split_on_char ' ' line with
        | [ v; c ] -> (v, Int32.of_string c)
        | _ -> invalid_arg line
      in
      let mul = verb = "MUL" in
      let req =
        if mul then Strategy.mul_const c
        else Strategy.div_const (if c > 0l then Strategy.Unsigned else Strategy.Signed) c
      in
      Span.with_span "bench.request" @@ fun () ->
      match i mod 4 with
      | 0 ->
          ignore
            (Span.with_span
               (if mul then "server.plan.mul" else "server.plan.div")
               (fun () -> if mul then Plan.mul c else Plan.div c))
      | 1 -> (
          match Span.with_span "plan.selector.choose" (fun () -> Selector.choose req) with
          | Ok ch -> Samples.add candidates (float_of_int (List.length ch.Selector.candidates))
          | Error _ -> ())
      | 2 ->
          List.iter
            (fun (s : Strategy.t) ->
              if s.Strategy.kind = Strategy.Emits && s.Strategy.applies req then begin
                let name = s.Strategy.name in
                ignore
                  (Span.with_span ("plan.strategy.cost_us." ^ name) (fun () ->
                       s.Strategy.cost Strategy.standalone req));
                match
                  Span.with_span ("plan.strategy.emit_us." ^ name) (fun () -> s.Strategy.emit req)
                with
                | Ok em ->
                    ignore
                      (Span.with_span ("plan.strategy.digest_us." ^ name) (fun () ->
                           Strategy.digest em))
                | Error _ -> ()
              end)
            Strategy.all
      | _ ->
          if mul then begin
            let p = Span.with_span "core.mul_const.plan" (fun () -> Hppa.Mul_const.plan c) in
            match p.Hppa.Mul_const.chain with
            | Some ch -> Samples.add steps (float_of_int (Hppa.Chain.length ch))
            | None -> ()
          end
          else
            ignore
              (Span.with_span "core.div_const.plan" (fun () ->
                   if c > 0l then Hppa.Div_const.plan_unsigned c else Hppa.Div_const.plan_signed c)))
    keys;
  let lru = Lru.create ~capacity:miss_cache in
  List.iter
    (fun line -> Span.with_span "server.lru.add" (fun () -> Lru.add lru line line))
    keys;
  let self = Span.self_times () in
  let us name = Measure.mean (self name) *. 1e6 in
  let strategies =
    List.concat_map
      (fun s ->
        List.map
          (fun part ->
            let name = Printf.sprintf "plan.strategy.%s_us.%s" part s in
            (name, us name))
          [ "cost"; "emit"; "digest" ])
      [ "mul_const_chain"; "div_const"; "mul_millicode"; "div_millicode" ]
  in
  [
    ("server.plan.mul_us", us "server.plan.mul");
    ("server.plan.div_us", us "server.plan.div");
    ("plan.selector.choose_us", us "plan.selector.choose");
    ("plan.selector.candidates", Measure.mean (Samples.to_array candidates));
    ("core.mul_const.plan_us", us "core.mul_const.plan");
    ("core.div_const.plan_us", us "core.div_const.plan");
    ("core.chain.steps_mean", Measure.mean (Samples.to_array steps));
    ("server.lru.add_ns", Measure.median (self "server.lru.add") *. 1e9);
  ]
  @ strategies

let miss env =
  let o = env.outcome in
  let stream = Gen.miss_stream ~seed:env.seed in
  let d, warms, setup_s =
    repeated_setup env ~cache:miss_cache ~conns:miss_conns ~warm:(fun d ->
        List.map (fun k -> (k, String.concat "\n" (request d k))) Gen.miss_warm_keys)
  in
  Fun.protect ~finally:(fun () -> stop d) @@ fun () ->
  let warmed, diffs = compare_setups o warms in
  List.iter
    (fun (line, reply) -> Report.tally o (Result.map ignore (Check.check_plan_reply ~line reply)))
    warmed;
  (* Keys in generation order, with their rounds. *)
  let sent = ref [] and round = ref 0 in
  let next () =
    let r, k = stream () in
    sent := (r, k) :: !sent;
    round := r;
    k
  in
  let replies = Hashtbl.create 4096 in
  let timed = ref [] in
  let t0 = Measure.now () in
  Client.ping_pong d.srv (List.hd d.cs)
    ~go:(fun () ->
      let now = Measure.now () in
      (now < t0 +. env.seconds || !round <= miss_rounds) && now < t0 +. miss_cap)
    ~next
    ~on_reply:(fun line reply ~wall ~cpu ->
      count d reply;
      Hashtbl.replace replies line reply;
      if !round <= miss_rounds then timed := (!round, cpu, wall) :: !timed);
  if !round <= miss_rounds then
    Report.fail o (Printf.sprintf "serve_miss did not finish %d rounds in %.0f s" miss_rounds miss_cap);
  let cpu = Array.of_list (List.map (fun (_, c, _) -> c) !timed)
  and wall = Array.of_list (List.map (fun (_, _, w) -> w) !timed) in
  let sum = Array.fold_left ( +. ) 0. in
  (* One miss's CPU time swings by a third from run to run (the daemon's
     collector and its idle domains charge it unevenly), and a per-key
     median falls among the short keys where that swing is largest. The
     latency figures are therefore per round: each round's mean CPU per
     miss, over the [miss_rounds] rounds. *)
  let round_means =
    Array.init miss_rounds (fun r ->
        let cs = List.filter_map (fun (k, c, _) -> if k = r + 1 then Some c else None) !timed in
        List.fold_left ( +. ) 0. cs /. float_of_int (List.length cs))
  in
  let st = stats d in
  check_requests env d st;
  if stat st "cache_hits" <> 0. then
    Report.fail o (Printf.sprintf "serve_miss hit the cache %s times" (Option.get (Check.field st "cache_hits")));
  let keys = List.rev !sent in
  let cycles = ref 0 and runs = ref 0 in
  List.iter
    (fun (round, line) ->
      let v =
        match Hashtbl.find_opt replies line with
        | Some [ r ] -> Check.check_plan_reply ~line r
        | _ -> Error (line ^ ": no single-line reply")
      in
      Report.tally o (Result.map ignore v);
      match v with
      | Ok (c, r) when round <= miss_rounds ->
          cycles := !cycles + c;
          runs := !runs + r
      | _ -> ())
    keys;
  let e2e =
    [
      ("setup_s", setup_s);
      ("ops_per_s", float_of_int (Array.length cpu) /. sum cpu);
      ("p50_us", pct_us 50. round_means);
      ("p90_us", pct_us 90. round_means);
      ("p99_us", pct_us 99. cpu);
      ("wall_ops_per_s", float_of_int (Array.length wall) /. sum wall);
      ("wall_p50_us", pct_us 50. wall);
      ("wall_p90_us", pct_us 90. wall);
      ("cycles_mean", float_of_int !cycles /. float_of_int (max 1 !runs));
    ]
  in
  if not env.trace then (e2e, [])
  else
    let hits = stat st "cache_hits" and misses = stat st "cache_misses" in
    ( e2e,
      server_counters d st ~hits ~misses ~diffs
      @ replay_miss (List.filteri (fun i _ -> i < miss_replay_keys) (List.map snd keys)) )
