(* Tests for the plan service (lib/server): protocol totality under
   fuzzing, the LRU cache, metrics, the domain pool, the determinism
   guarantee (same request -> same plan bytes, whatever the cache state
   or worker count), and a socket end-to-end round trip. *)

module Word = Hppa_word.Word
module Prng = Hppa_dist.Prng
module Protocol = Hppa_server.Protocol
module Lru = Hppa_server.Lru
module Metrics = Hppa_server.Metrics
module Pool = Hppa_server.Pool
module Plan = Hppa_server.Plan
module Server = Hppa_server.Server
module Load_gen = Hppa_server.Load_gen
module Obs = Hppa_obs.Obs

(* [workers] predates the sharded redesign; it now sets the shard count
   (one worker domain per shard). *)
let test_config shards =
  {
    Server.Config.default with
    Server.Config.endpoint = Server.Config.Unix_socket "unused.sock";
    shards;
    cache_capacity = 64;
    fuel = 1_000_000;
  }

let with_server ?(workers = 1) ?fuel ?(certified = false) f =
  let cfg = { (test_config workers) with Server.Config.certified } in
  let cfg =
    match fuel with
    | None -> cfg
    | Some fuel -> { cfg with Server.Config.fuel }
  in
  let srv = Server.create cfg in
  Fun.protect ~finally:(fun () -> Server.shutdown_pool srv) (fun () -> f srv)

(* ------------------------------------------------------------------ *)
(* Protocol parsing                                                    *)

(* Requests compare by their canonical rendering, which spells out the
   verb, batch form, signedness tag and every lane (a run kernel's row
   holds functions, so structural equality does not apply). *)
let show r = Format.asprintf "%a" Protocol.pp_request r

let req =
  Alcotest.testable
    (fun ppf r -> Protocol.pp_request ppf r)
    (fun a b -> String.equal (show a) (show b))

let parse_ok line expected () =
  match Protocol.parse line with
  | Ok r -> Alcotest.check req line expected r
  | Error e -> Alcotest.failf "%S rejected: %s" line e

let parse_err line () =
  match Protocol.parse line with
  | Ok _ -> Alcotest.failf "%S accepted" line
  | Error _ -> ()

let consts kernel batch ns = Protocol.Op { kernel; batch; lanes = ns }

let batch run signed lanes =
  Protocol.Op { kernel = Protocol.Krun { run; signed }; batch = true; lanes }

let test_parse_valid () =
  parse_ok "MUL 625" (Protocol.mul 625l) ();
  parse_ok "mul 625" (Protocol.mul 625l) ();
  parse_ok "  MUL   -7  " (Protocol.mul (-7l)) ();
  parse_ok "MUL 0x1f" (Protocol.mul 31l) ();
  parse_ok "MUL 4294967295" (Protocol.mul (-1l)) ();
  parse_ok "DIV 19\r" (Protocol.div 19l) ();
  parse_ok "MULB 625" (consts Protocol.Kmul true [ 625l ]) ();
  parse_ok "mulb 625 -7 0x1f" (consts Protocol.Kmul true [ 625l; -7l; 31l ]) ();
  parse_ok "DIVB 7 0 -9" (consts Protocol.Kdiv true [ 7l; 0l; -9l ]) ();
  parse_ok
    ("MULB " ^ String.concat " " (List.init 64 string_of_int))
    (consts Protocol.Kmul true (List.init 64 Int32.of_int))
    ();
  parse_ok "EVAL mulI 99 -7" (Protocol.Eval ("mulI", [ 99l; -7l ])) ();
  parse_ok "EVAL divU" (Protocol.Eval ("divU", [])) ();
  parse_ok "W64MUL u 123 456"
    (Protocol.run Hppa_w64.mul ~signed:false [ 123L; 456L ])
    ();
  parse_ok "w64mul s -7 3"
    (Protocol.run Hppa_w64.mul ~signed:true [ -7L; 3L ])
    ();
  parse_ok "W64DIV u 0x100000000 3"
    (Protocol.run Hppa_w64.div ~signed:false [ 0x1_0000_0000L; 3L ])
    ();
  parse_ok "W64REM s 9223372036854775807 -1"
    (Protocol.run Hppa_w64.rem ~signed:true [ Int64.max_int; -1L ])
    ();
  parse_ok "W64MULB u 1 2 3 4"
    (batch Hppa_w64.mul false [ [ 1L; 2L ]; [ 3L; 4L ] ])
    ();
  parse_ok "W64DIVB s 10 3" (batch Hppa_w64.div true [ [ 10L; 3L ] ]) ();
  parse_ok "W64DIVL 0 100 7"
    (Protocol.run Hppa_w64.divl ~signed:false [ 0L; 100L; 7L ])
    ();
  parse_ok "w64divl 0x1 0 3"
    (Protocol.run Hppa_w64.divl ~signed:false [ 1L; 0L; 3L ])
    ();
  parse_ok "W64DIVLB 0 100 7 1 0 3"
    (batch Hppa_w64.divl false [ [ 0L; 100L; 7L ]; [ 1L; 0L; 3L ] ])
    ();
  parse_ok "STATS" Protocol.Stats ();
  parse_ok "METRICS" Protocol.Metrics ();
  parse_ok "metrics\r" Protocol.Metrics ();
  parse_ok "ping" Protocol.Ping ();
  parse_ok "QUIT" Protocol.Quit ()

let test_parse_invalid () =
  List.iter
    (fun line -> parse_err line ())
    [
      "";
      "   ";
      "FROB 1";
      "MUL";
      "MUL 1 2";
      "MUL 99999999999999";  (* does not fit 32 bits *)
      "MUL 2a";
      "DIV one";
      "EVAL";
      "EVAL bad-label 1";
      "EVAL mulI 1 2 3 4 5";  (* five arguments *)
      "MULB";  (* batch needs at least one operand *)
      "DIVB";
      "MULB 1 2 three";  (* one bad operand rejects the whole batch *)
      "DIVB 99999999999999";
      "MULB " ^ String.concat " " (List.init 65 string_of_int);  (* cap 64 *)
      "STATS now";
      "METRICS all";
      "QUIT 0";
      String.make (Protocol.max_line_bytes + 1) 'M';
      (* W64: signedness tag mandatory, operands are full int64 pairs. *)
      "W64MUL";
      "W64MUL u";
      "W64MUL u 5";  (* missing y *)
      "W64MUL u 5 7 9";  (* too many operands *)
      "W64MUL x 5 7";  (* bad signedness tag *)
      "W64MUL 5 7";  (* missing signedness tag *)
      "W64DIV u 99999999999999999999 3";  (* does not fit 64 bits *)
      "W64REM s one 2";
      "W64MULB u";  (* batch needs at least one pair *)
      "W64DIVB u 1 2 3";  (* odd operand count: not pairs *)
      "W64REMB s 1 2 three 4";  (* one bad operand rejects the batch *)
      "W64MULB u "
      ^ String.concat " "
          (List.init (2 * (Hppa_w64.mul.batch_cap + 1)) string_of_int);
      (* W64DIVL: exactly three operands, no signedness tag (the 128/64
         divide is unsigned by definition). *)
      "W64DIVL";
      "W64DIVL 1 2";  (* missing divisor *)
      "W64DIVL 1 2 3 4";  (* too many operands *)
      "W64DIVL u 1 2 3";  (* no signedness tag on this verb *)
      "W64DIVLB";  (* batch needs at least one triple *)
      "W64DIVLB 1 2 3 4";  (* operand count not a multiple of 3 *)
      "W64DIVLB "
      ^ String.concat " "
          (List.init (3 * (Hppa_w64.divl.batch_cap + 1)) string_of_int);
    ]

(* ------------------------------------------------------------------ *)
(* Fuzz: the parser and the full dispatch surface are total            *)

let random_bytes g len =
  String.init len (fun _ ->
      (* Any byte but the line terminator, which the reader strips. *)
      let c = Prng.int_range g 0 255 in
      Char.chr (if c = Char.code '\n' then 0 else c))

let fuzz_inputs =
  lazy
    (let g = Prng.create 0xF0220L in
     let random =
       List.init 1200 (fun _ -> random_bytes g (Prng.int_range g 0 200))
     in
     (* Truncations and corruptions of valid requests. *)
     let seeds =
       [
         "MUL 625"; "DIV 7"; "MULB 625 -7 0"; "DIVB 7 0 -9";
         "EVAL mulI 99 -7"; "STATS"; "PING"; "QUIT";
         "W64MUL u 123 456"; "W64DIV s -7 3"; "W64REM u 100 7";
         "W64DIVB s 10 3 5 0"; "W64DIVL 0 100 7"; "W64DIVLB 0 100 7 1 0 3";
       ]
     in
     let truncated =
       List.concat_map
         (fun s -> List.init (String.length s) (fun i -> String.sub s 0 i))
         seeds
     in
     let corrupted =
       List.concat_map
         (fun s ->
           List.init 20 (fun _ ->
               let b = Bytes.of_string s in
               Bytes.set b
                 (Prng.int_range g 0 (Bytes.length b - 1))
                 (Char.chr (Prng.int_range g 0 255));
               Bytes.to_string b))
         seeds
     in
     let oversized =
       [
         String.make 4000 'A';
         "MUL " ^ String.make 2000 '9';
         String.make (Protocol.max_line_bytes + 1) ' ' ^ "PING";
         "MULB " ^ String.concat " " (List.init 200 string_of_int);
         "W64MULB u " ^ String.concat " " (List.init 200 string_of_int);
         "W64DIV u " ^ String.make 2000 '9' ^ " 3";
       ]
     in
     random @ truncated @ corrupted @ oversized)

let test_fuzz_parse_total () =
  List.iter
    (fun line ->
      match Protocol.parse line with
      | Ok _ | Error _ -> ()
      | exception exn ->
          Alcotest.failf "parse raised %s on %S" (Printexc.to_string exn) line)
    (Lazy.force fuzz_inputs)

let test_fuzz_respond_total () =
  with_server (fun srv ->
      List.iter
        (fun line ->
          match Server.respond srv line with
          | reply ->
              if
                not
                  (Protocol.is_ok reply || Protocol.is_err reply
                 || Server.is_scrape reply)
              then Alcotest.failf "unframed reply %S for %S" reply line;
              (* Only the METRICS scrape and MULB/DIVB batch replies
                 may span lines — and every batch lane line must itself
                 be a framed scalar reply. *)
              if String.contains reply '\n' then
                if Server.is_batch_reply reply then
                  List.iter
                    (fun l ->
                      if not (Protocol.is_ok l || Protocol.is_err l) then
                        Alcotest.failf "unframed batch lane %S for %S" l line)
                    (List.tl (String.split_on_char '\n' reply))
                else if not (Server.is_scrape reply) then
                  Alcotest.failf "multi-line reply for %S" line
          | exception exn ->
              Alcotest.failf "respond raised %s on %S"
                (Printexc.to_string exn) line)
        (Lazy.force fuzz_inputs))

(* ------------------------------------------------------------------ *)
(* LRU cache                                                           *)

let test_lru_basics () =
  let c = Lru.create ~capacity:2 in
  Alcotest.(check (option string)) "miss" None (Lru.find c "a");
  Lru.add c "a" "1";
  Lru.add c "b" "2";
  Alcotest.(check (option string)) "hit a" (Some "1") (Lru.find c "a");
  (* b is now least recent; adding c evicts it. *)
  Lru.add c "c" "3";
  Alcotest.(check (option string)) "b evicted" None (Lru.find c "b");
  Alcotest.(check (option string)) "a kept" (Some "1") (Lru.find c "a");
  Alcotest.(check (option string)) "c kept" (Some "3") (Lru.find c "c");
  Alcotest.(check int) "size" 2 (Lru.size c);
  Alcotest.(check int) "evictions" 1 (Lru.evictions c);
  Alcotest.(check int) "hits" 3 (Lru.hits c);
  Alcotest.(check int) "misses" 2 (Lru.misses c);
  (* Overwrite refreshes, no growth. *)
  Lru.add c "a" "1'";
  Alcotest.(check int) "size after overwrite" 2 (Lru.size c);
  Alcotest.(check (option string)) "overwritten" (Some "1'") (Lru.find c "a")

let test_lru_rejects_bad_capacity () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Lru.create: capacity must be >= 1") (fun () ->
      ignore (Lru.create ~capacity:0))

let test_lru_parallel () =
  (* 4 domains hammer one cache; we only require internal consistency:
     no crash, size bounded, hits + misses = finds. *)
  let c = Lru.create ~capacity:64 in
  let finds_per_domain = 2000 in
  let worker seed () =
    let g = Prng.create (Int64.of_int seed) in
    for _ = 1 to finds_per_domain do
      let k = Printf.sprintf "k%d" (Prng.int_range g 0 99) in
      match Lru.find c k with
      | Some _ -> ()
      | None -> Lru.add c k (k ^ "!")
    done
  in
  let ds = List.init 4 (fun i -> Domain.spawn (worker (i + 1))) in
  List.iter Domain.join ds;
  Alcotest.(check bool) "size bounded" true (Lru.size c <= 64);
  Alcotest.(check int) "find count" (4 * finds_per_domain)
    (Lru.hits c + Lru.misses c)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_metrics_percentiles () =
  let m = Metrics.create () in
  Alcotest.(check (float 0.0)) "empty p99" 0.0 (Metrics.percentile_us m 0.99);
  (* 99 fast requests, one slow one. *)
  for _ = 1 to 99 do
    Metrics.record m ~error:false ~us:3.0
  done;
  Metrics.record m ~error:true ~us:5000.0;
  Alcotest.(check int) "requests" 100 (Metrics.requests m);
  Alcotest.(check int) "errors" 1 (Metrics.errors m);
  (* 3 us lands in the (2,4] bucket: upper bound 4. *)
  Alcotest.(check (float 0.0)) "p50" 4.0 (Metrics.percentile_us m 0.5);
  (* The slow request is exactly the 100th rank = p100 >= p99. *)
  Alcotest.(check (float 0.0)) "p99" 4.0 (Metrics.percentile_us m 0.99);
  Alcotest.(check (float 0.0)) "p100" 8192.0 (Metrics.percentile_us m 1.0);
  Metrics.reset m;
  Alcotest.(check int) "reset" 0 (Metrics.requests m)

let test_metrics_per_verb () =
  let m = Metrics.create () in
  Metrics.record ~verb:"MUL" m ~error:false ~us:3.0;
  Metrics.record ~verb:"MUL" m ~error:false ~us:3.0;
  Metrics.record ~verb:"EVAL" m ~error:true ~us:100.0;
  Metrics.record m ~error:false ~us:1.0;
  (* no verb: aggregate only *)
  let samples = Obs.Registry.snapshot (Metrics.registry m) in
  let hist_count name verb =
    List.find_map
      (fun s ->
        match (s : Obs.sample).value with
        | Obs.Histogram_v { count; _ }
          when s.name = name && s.labels = [ ("verb", verb) ] ->
            Some count
        | _ -> None)
      samples
  in
  Alcotest.(check (option int))
    "MUL latencies" (Some 2)
    (hist_count "hppa_serve_verb_latency_us" "MUL");
  Alcotest.(check (option int))
    "EVAL latencies" (Some 1)
    (hist_count "hppa_serve_verb_latency_us" "EVAL");
  Alcotest.(check int) "aggregate" 4 (Metrics.requests m);
  Alcotest.(check int) "errors" 1 (Metrics.errors m)

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)

let test_pool_submit () =
  let p = Pool.create ~workers:2 ~init:(fun () -> ref 0) () in
  let squares = List.init 50 (fun i -> Pool.submit p (fun _ -> i * i)) in
  Alcotest.(check (list int)) "results in order"
    (List.init 50 (fun i -> i * i))
    squares;
  (* Exceptions cross back to the submitter. *)
  Alcotest.check_raises "job exception" (Failure "boom") (fun () ->
      Pool.submit p (fun _ -> failwith "boom"));
  (* And the pool survives them. *)
  Alcotest.(check int) "alive after exception" 7
    (Pool.submit p (fun _ -> 7));
  Pool.shutdown p;
  Pool.shutdown p;
  (* idempotent *)
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pool.submit: pool is shut down") (fun () ->
      ignore (Pool.submit p (fun _ -> 0)))

let test_pool_concurrent_submitters () =
  let p = Pool.create ~workers:3 ~init:(fun () -> ()) () in
  let total = Atomic.make 0 in
  let submitter lo () =
    for i = lo to lo + 99 do
      Atomic.fetch_and_add total (Pool.submit p (fun () -> i)) |> ignore
    done
  in
  let ths = List.init 4 (fun t -> Thread.create (submitter (t * 100)) ()) in
  List.iter Thread.join ths;
  Pool.shutdown p;
  Alcotest.(check int) "sum" (399 * 400 / 2) (Atomic.get total)

(* Fire-and-forget jobs are instrumented like submitted ones: every
   [post] observes its queue wait, so the async serving path's
   hppa_pool_wait_us is not stuck at zero samples. *)
let test_pool_post_observes_wait () =
  let obs = Obs.Registry.create () in
  let p = Pool.create ~obs ~workers:2 ~init:(fun () -> ()) () in
  let ran = Atomic.make 0 in
  let n = 25 in
  for i = 1 to n do
    Pool.post p (fun () ->
        Atomic.incr ran;
        if i = 3 then failwith "posted job raises")
  done;
  Pool.shutdown p;
  Alcotest.(check int) "every post ran" n (Atomic.get ran);
  let find name =
    List.find_map
      (fun (s : Obs.sample) ->
        if s.Obs.name = name then Some s.Obs.value else None)
      (Obs.Registry.snapshot obs)
  in
  (match find "hppa_pool_wait_us" with
  | Some (Obs.Histogram_v { count; _ }) ->
      Alcotest.(check int) "wait histogram count" n count
  | _ -> Alcotest.fail "no hppa_pool_wait_us histogram");
  match find "hppa_pool_job_exceptions_total" with
  | Some (Obs.Counter_v k) -> Alcotest.(check int) "exceptions counted" 1 k
  | _ -> Alcotest.fail "no hppa_pool_job_exceptions_total counter"

(* ------------------------------------------------------------------ *)
(* Plan determinism: the acceptance-criterion bytes                    *)

let test_plan_pure () =
  List.iter
    (fun n ->
      Alcotest.(check string)
        (Printf.sprintf "mul %ld repeatable" n)
        (fst (Result.get_ok (Plan.mul n)))
        (fst (Result.get_ok (Plan.mul n))))
    [ 625l; -7l; 0l; 1l; Int32.min_int; 0x7FFF_FFFFl ];
  List.iter
    (fun d ->
      Alcotest.(check string)
        (Printf.sprintf "div %ld repeatable" d)
        (fst (Result.get_ok (Plan.div d)))
        (fst (Result.get_ok (Plan.div d))))
    [ 3l; 7l; 11l; 16l; -5l; 1l ]

(* Certified-only serving must not change a single reply byte: the
   payload is rendered from the planner record, the certificate only
   rides along in the artifact. *)
let test_plan_certified_byte_identity () =
  List.iter
    (fun n ->
      let plain = Result.get_ok (Plan.mul n) in
      let certified = Result.get_ok (Plan.mul ~require_certified:true n) in
      Alcotest.(check string)
        (Printf.sprintf "mul %ld bytes" n)
        (fst plain) (fst certified);
      Alcotest.(check bool)
        (Printf.sprintf "mul %ld certificate attached" n)
        true
        ((snd certified).Plan.cert_digest <> None))
    [ 625l; -7l; 1l; 0x7FFF_FFFFl ];
  List.iter
    (fun d ->
      let plain = Result.get_ok (Plan.div d) in
      let certified = Result.get_ok (Plan.div ~require_certified:true d) in
      Alcotest.(check string)
        (Printf.sprintf "div %ld bytes" d)
        (fst plain) (fst certified);
      Alcotest.(check bool)
        (Printf.sprintf "div %ld certificate attached" d)
        true
        ((snd certified).Plan.cert_digest <> None))
    [ 3l; 7l; 11l; 16l; -5l; 1l ]

let test_plan_bytes_cold_warm_workers () =
  (* The same request must produce identical bytes on a cold cache, a
     warm cache, and any worker-pool size. *)
  let requests =
    [
      "MUL 625"; "MUL -1431655765"; "DIV 7"; "DIV -9"; "EVAL mulI 1234 567";
      "W64MUL u 4294967297 4294967297"; "W64DIV s -7 3";
      "W64REM u 10000000000 7";
    ]
  in
  let replies_with workers =
    with_server ~workers (fun srv ->
        List.map
          (fun r ->
            let cold = Server.respond srv r in
            let warm = Server.respond srv r in
            Alcotest.(check string) (r ^ " cold=warm") cold warm;
            cold)
          requests)
  in
  let w1 = replies_with 1 and w3 = replies_with 3 in
  List.iter2
    (fun a b -> Alcotest.(check string) "workers 1 = workers 3" a b)
    w1 w3

let test_normalized_requests_share_cache () =
  with_server (fun srv ->
      let a = Server.respond srv "MUL 625" in
      let b = Server.respond srv "  mul   625 " in
      Alcotest.(check string) "normalized" a b)

(* ------------------------------------------------------------------ *)
(* Dispatch semantics                                                  *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let check_reply srv line ~ok needles =
  let reply = Server.respond srv line in
  Alcotest.(check bool)
    (Printf.sprintf "%s framed (%s)" line reply)
    ok (Protocol.is_ok reply);
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "%s contains %S (got %s)" line n reply)
        true (contains ~needle:n reply))
    needles

let test_dispatch_semantics () =
  with_server ~workers:2 (fun srv ->
      check_reply srv "PING" ~ok:true [ "pong" ];
      check_reply srv "QUIT" ~ok:true [ "bye" ];
      check_reply srv "MUL 625" ~ok:true
        [ "n=625"; "steps=4"; "code="; "chain=" ];
      (* mul by 0 / 1 / min_int: one-instruction special cases. *)
      check_reply srv "MUL 0" ~ok:true [ "n=0"; "steps=0" ];
      check_reply srv "DIV 7" ~ok:true [ "d=7"; "strategy=reciprocal" ];
      check_reply srv "DIV 16" ~ok:true [ "strategy=shift:4" ];
      check_reply srv "DIV -9" ~ok:true [ "signed=true" ];
      check_reply srv "DIV 0" ~ok:false [ "division by zero" ];
      check_reply srv "EVAL mulI 99 -7" ~ok:true
        [ "ret0=-693"; "cycles="; "engine=" ];
      check_reply srv "EVAL divU 100 7" ~ok:true [ "ret0=14"; "ret1=2" ];
      check_reply srv "EVAL nosuch 1" ~ok:false [ "unknown millicode entry" ];
      (* A trapping overflow multiply is an error reply, not a crash. *)
      check_reply srv "EVAL muloI -2147483648 2" ~ok:false [ "trap" ];
      check_reply srv "STATS" ~ok:true
        [ "requests="; "cache_hit_rate="; "p99_us=" ])

(* The acceptance criterion for the batch verbs: a MULB/DIVB reply is a
   "k=K" header plus K lines byte-identical to the K scalar replies —
   whether the lanes come from the cache or a fresh computation, and
   including error lanes (DIV 0). *)
let test_batch_byte_identity () =
  let mul_ops = [ "625"; "-7"; "0"; "1"; "625" ] in
  let div_ops = [ "7"; "0"; "-9"; "16"; "1" ] in
  let check_batch srv verb scalar_verb ops =
    let scalars =
      List.map (fun n -> Server.respond srv (scalar_verb ^ " " ^ n)) ops
    in
    let reply = Server.respond srv (verb ^ " " ^ String.concat " " ops) in
    Alcotest.(check bool)
      (verb ^ " framed as batch") true
      (Server.is_batch_reply reply);
    match String.split_on_char '\n' reply with
    | header :: lanes ->
        Alcotest.(check string)
          (verb ^ " header")
          (Printf.sprintf "OK %s k=%d" verb (List.length ops))
          header;
        List.iteri
          (fun i (scalar, lane) ->
            Alcotest.(check string)
              (Printf.sprintf "%s lane %d byte-identical" verb i)
              scalar lane)
          (List.combine scalars lanes)
    | [] -> Alcotest.fail "empty batch reply"
  in
  (* Warm path: scalars answered first, the batch hits their cache. *)
  with_server ~workers:2 (fun srv ->
      check_batch srv "MULB" "MUL" mul_ops;
      check_batch srv "DIVB" "DIV" div_ops);
  (* Cold path: the batch computes first; scalars afterwards must agree
     (the batch populated the shared scalar cache). *)
  with_server ~workers:2 (fun srv ->
      let reply = Server.respond srv ("MULB " ^ String.concat " " mul_ops) in
      let lanes = List.tl (String.split_on_char '\n' reply) in
      List.iter2
        (fun n lane ->
          Alcotest.(check string)
            (Printf.sprintf "cold MULB lane %s = later scalar" n)
            lane
            (Server.respond srv ("MUL " ^ n)))
        mul_ops lanes;
      (* Every distinct operand the batch computed is now a cache hit. *)
      let stats = Server.respond srv "STATS" in
      Alcotest.(check bool)
        (Printf.sprintf "batch warmed the scalar cache (%s)" stats)
        true
        (contains ~needle:"cache_hits=5" stats))

let test_batch_error_lanes () =
  with_server (fun srv ->
      let reply = Server.respond srv "DIVB 7 0 16" in
      match String.split_on_char '\n' reply with
      | [ header; l0; l1; l2 ] ->
          Alcotest.(check string) "header" "OK DIVB k=3" header;
          Alcotest.(check bool) "lane 0 ok" true (Protocol.is_ok l0);
          Alcotest.(check bool) "lane 1 is ERR" true (Protocol.is_err l1);
          Alcotest.(check bool) "lane 1 names the cause" true
            (contains ~needle:"division by zero" l1);
          Alcotest.(check bool) "lane 2 ok" true (Protocol.is_ok l2);
          Alcotest.(check bool) "lane 2 strategy" true
            (contains ~needle:"strategy=shift:4" l2)
      | ls -> Alcotest.failf "expected 4 lines, got %d" (List.length ls))

(* ------------------------------------------------------------------ *)
(* W64 serving: the double-word verbs through the same plan cache      *)

let test_w64_dispatch_semantics () =
  with_server ~workers:2 (fun srv ->
      check_reply srv "W64MUL u 123 456" ~ok:true
        [ "hi=0"; "lo=56088"; "cycles="; "entry=mulU128" ];
      (* Full 64x64: (2^32+1)^2 = 2^64 + 2^33 + 1. *)
      check_reply srv "W64MUL u 4294967297 4294967297" ~ok:true
        [ "hi=1"; "lo=8589934593" ];
      check_reply srv "W64MUL s -7 3" ~ok:true
        [ "hi=-1"; "lo=-21"; "entry=mulI128" ];
      (* Truncating signed divide: -7/3 = -2 rem -1. *)
      check_reply srv "W64DIV s -7 3" ~ok:true
        [ "q=-2"; "r=-1"; "entry=divI64w" ];
      check_reply srv "W64DIV u 10000000000 3" ~ok:true
        [ "q=3333333333"; "r=1"; "entry=divU64w" ];
      check_reply srv "W64REM u 100 7" ~ok:true [ "r=2"; "entry=remU64w" ];
      check_reply srv "W64REM s -100 7" ~ok:true [ "r=-2"; "entry=remI64w" ];
      (* A zero divisor traps in the millicode; the server frames it as
         an error reply, not a crash. *)
      check_reply srv "W64DIV u 5 0" ~ok:false [ "trap" ];
      check_reply srv "W64REM s 5 0" ~ok:false [ "trap" ])

(* The 128/64 divide verb: three-operand lanes through the same plan
   cache, quotient/remainder decoded from the (ret0:ret1)/(arg0:arg1)
   pairs of divU128by64. *)
let test_divl_dispatch_semantics () =
  with_server ~workers:2 (fun srv ->
      check_reply srv "W64DIVL 0 100 7" ~ok:true
        [ "q=14"; "r=2"; "cycles="; "entry=divU128by64" ];
      (* 2^64 / 3: the quotient needs the full dword. *)
      check_reply srv "W64DIVL 1 0 3" ~ok:true
        [ "q=6148914691236517205"; "r=1" ];
      (* The dividend high dword rides above a 32-bit divisor. *)
      check_reply srv "W64DIVL 4 3735928559 5" ~ok:true [ "r=3" ];
      (* Zero divisor and an unrepresentable quotient (hi >= y) trap;
         the server frames both as error replies. *)
      check_reply srv "W64DIVL 0 5 0" ~ok:false [ "trap" ];
      check_reply srv "W64DIVL 5 0 5" ~ok:false [ "trap" ];
      (* Normalized form shares the scalar cache entry. *)
      let a = Server.respond srv "W64DIVL 0 100 7" in
      let b = Server.respond srv "  w64divl  0 0x64 7 " in
      Alcotest.(check string) "normalized" a b)

let test_divl_batch_byte_identity () =
  let ops = [ ("0", "100", "7"); ("0", "5", "0"); ("1", "0", "3") ] in
  let flat =
    String.concat " " (List.concat_map (fun (a, b, c) -> [ a; b; c ]) ops)
  in
  let scalar srv (a, b, c) =
    Server.respond srv (Printf.sprintf "W64DIVL %s %s %s" a b c)
  in
  (* Warm path: scalars first, the batch hits their cache entries. *)
  with_server ~workers:2 (fun srv ->
      let scalars = List.map (scalar srv) ops in
      let reply = Server.respond srv ("W64DIVLB " ^ flat) in
      Alcotest.(check bool) "framed as batch" true
        (Server.is_batch_reply reply);
      match String.split_on_char '\n' reply with
      | header :: lanes ->
          Alcotest.(check string) "header"
            (Printf.sprintf "OK W64DIVLB k=%d" (List.length ops))
            header;
          List.iteri
            (fun i (s, l) ->
              Alcotest.(check string)
                (Printf.sprintf "warm lane %d byte-identical" i)
                s l)
            (List.combine scalars lanes)
      | [] -> Alcotest.fail "empty batch reply");
  (* Cold path: the batch computes first; scalars afterwards agree, and
     the zero-divisor lane is a framed per-lane error. *)
  with_server ~workers:2 (fun srv ->
      let reply = Server.respond srv ("W64DIVLB " ^ flat) in
      let lanes = List.tl (String.split_on_char '\n' reply) in
      List.iter2
        (fun op lane ->
          Alcotest.(check string) "cold lane = later scalar" lane
            (scalar srv op))
        ops lanes;
      match lanes with
      | _ :: bad :: _ ->
          Alcotest.(check bool) "zero-divisor lane is ERR" true
            (Protocol.is_err bad);
          Alcotest.(check bool) "lane names the trap" true
            (contains ~needle:"trap" bad)
      | _ -> Alcotest.fail "missing lanes")

(* Same acceptance criterion as MULB/DIVB: a W64 batch reply is a
   header plus lanes byte-identical to the scalar replies, error lanes
   (zero divisors) included, cache-state independent. *)
let test_w64_batch_byte_identity () =
  let ops = [ ("10", "3"); ("5", "0"); ("-7", "3"); ("10000000000", "7") ] in
  let flat = String.concat " " (List.concat_map (fun (x, y) -> [ x; y ]) ops) in
  let scalar srv (x, y) = Server.respond srv ("W64DIV s " ^ x ^ " " ^ y) in
  (* Warm path: scalars first, the batch hits their cache entries. *)
  with_server ~workers:2 (fun srv ->
      let scalars = List.map (scalar srv) ops in
      let reply = Server.respond srv ("W64DIVB s " ^ flat) in
      Alcotest.(check bool) "framed as batch" true
        (Server.is_batch_reply reply);
      match String.split_on_char '\n' reply with
      | header :: lanes ->
          Alcotest.(check string) "header"
            (Printf.sprintf "OK W64DIVB k=%d" (List.length ops))
            header;
          List.iteri
            (fun i (s, l) ->
              Alcotest.(check string)
                (Printf.sprintf "warm lane %d byte-identical" i)
                s l)
            (List.combine scalars lanes)
      | [] -> Alcotest.fail "empty batch reply");
  (* Cold path: the batch computes first; scalars afterwards agree. *)
  with_server ~workers:2 (fun srv ->
      let reply = Server.respond srv ("W64DIVB s " ^ flat) in
      let lanes = List.tl (String.split_on_char '\n' reply) in
      List.iter2
        (fun (x, y) lane ->
          Alcotest.(check string)
            (Printf.sprintf "cold lane %s/%s = later scalar" x y)
            lane
            (scalar srv (x, y)))
        ops lanes;
      (* The zero-divisor lane is a framed per-lane error, the batch
         itself still succeeds. *)
      match lanes with
      | _ :: bad :: _ ->
          Alcotest.(check bool) "zero-divisor lane is ERR" true
            (Protocol.is_err bad);
          Alcotest.(check bool) "lane names the trap" true
            (contains ~needle:"trap" bad)
      | _ -> Alcotest.fail "missing lanes")

(* One property over every row of Hppa_w64's kernel table, at each
   signedness, on random operand dwords (zero divisors, -2^63 / -1 and
   128/64 quotient overflows arise among them): the canonical form parses
   back to the same request, a batch lane's cache key is the scalar
   request's, and the scalar reply, the batch lane's reply and a reply
   rendered from the row's reference model plus the run's cycles are
   the same bytes. Scalar and batch replies come from two servers, so
   neither answers from the other's cache. *)
let run_view :
    Protocol.request -> (Hppa_w64.kernel * bool * bool * int64 list list) option
    = function
  | Protocol.Op { kernel = Protocol.Krun { run; signed }; batch; lanes } ->
      Some (run, signed, batch, lanes)
  | _ -> None

let check_round_trip r =
  let line = show r in
  match (Protocol.parse line, run_view r) with
  | Ok back, Some (run, signed, batch, lanes) -> (
      match run_view back with
      | Some (run', signed', batch', lanes') ->
          Alcotest.(check bool) (line ^ " row") true (run == run');
          Alcotest.(check (triple bool bool (list (list int64))))
            (line ^ " round trip") (signed, batch, lanes)
            (signed', batch', lanes')
      | None -> Alcotest.failf "%s parsed to another verb" line)
  | Error e, _ -> Alcotest.failf "%s rejected: %s" line e
  | Ok _, None -> Alcotest.failf "%s is not a run request" line

let test_kernel_rows_property () =
  let g = Prng.create 0x80E5L in
  let dword () =
    match Prng.int_range g 0 5 with
    | 0 -> 0L
    | 1 -> -1L
    | 2 -> Int64.min_int
    | 3 -> Int64.logand (Prng.next64 g) 0xffffffffL
    | _ -> Prng.next64 g
  in
  let mach = Hppa.Millicode.machine () in
  let fuel = (test_config 1).Server.Config.fuel in
  with_server (fun scalar_srv ->
      with_server (fun batch_srv ->
          List.iter
            (fun ((k : Hppa_w64.kernel), signed) ->
              for _ = 1 to 12 do
                let lanes =
                  List.init
                    (Prng.int_range g 2 5)
                    (fun _ -> List.map (fun _ -> dword ()) k.args)
                in
                let kernel = Protocol.Krun { run = k; signed } in
                let breq = Protocol.Op { kernel; batch = true; lanes } in
                check_round_trip breq;
                let blines =
                  String.split_on_char '\n'
                    (Server.respond batch_srv (show breq))
                in
                Alcotest.(check int)
                  (show breq ^ " lines")
                  (List.length lanes + 1)
                  (List.length blines);
                List.iter2
                  (fun xs lane_reply ->
                    let sreq = Protocol.run k ~signed xs in
                    let line = show sreq in
                    check_round_trip sreq;
                    Alcotest.(check string)
                      (line ^ " lane key") line
                      (Protocol.lane_key kernel xs);
                    Hppa_machine.Machine.reset mach;
                    let _, cycles = Hppa_w64.call_cycles mach k ~signed xs in
                    let modelled =
                      match
                        Plan.render ~fuel k ~signed xs
                          (k.reference ~signed xs) cycles
                      with
                      | Ok payload -> Protocol.ok payload
                      | Error detail -> Protocol.err detail
                    in
                    Alcotest.(check string)
                      (line ^ " scalar = model") modelled
                      (Server.respond scalar_srv line);
                    Alcotest.(check string)
                      (line ^ " batch lane = model") modelled lane_reply)
                  lanes (List.tl blines)
              done)
            Hppa_w64.runs))

let test_metrics_scrape () =
  with_server (fun srv ->
      ignore (Server.respond srv "MUL 625");
      ignore (Server.respond srv "MUL 625");
      ignore (Server.respond srv "FROB");
      let reply = Server.respond srv "METRICS" in
      Alcotest.(check bool) "scrape framed" true (Server.is_scrape reply);
      Alcotest.(check bool) "ends with # EOF" true
        (contains ~needle:"# EOF" reply);
      match Obs.Export.parse_prometheus reply with
      | Error msg -> Alcotest.failf "scrape does not parse: %s" msg
      | Ok samples ->
          let get name =
            match Obs.Export.find samples name with
            | Some v -> v
            | None -> Alcotest.failf "missing %s" name
          in
          (* MUL, MUL, FROB counted; METRICS itself not yet recorded at
             snapshot time. *)
          Alcotest.(check (float 0.0))
            "requests" 3.0
            (get "hppa_serve_requests_total");
          Alcotest.(check (float 0.0))
            "errors" 1.0
            (get "hppa_serve_errors_total");
          Alcotest.(check (float 0.0))
            "cache hits" 1.0
            (get "hppa_serve_cache_hits_total");
          Alcotest.(check (float 0.0))
            "hit rate" 0.5
            (get "hppa_serve_cache_hit_rate");
          Alcotest.(check (float 0.0))
            "workers gauge" 1.0 (get "hppa_serve_workers");
          (* The scrape itself is never cached: hits unchanged after. *)
          let again = Server.respond srv "METRICS" in
          Alcotest.(check bool) "second scrape framed" true
            (Server.is_scrape again))

let test_plan_selector_metrics () =
  (* MUL/DIV dispatch through the strategy selector against the server
     registry: per-strategy hppa_plan_* families show in the scrape and
     the selector's verdict is cached alongside the reply bytes. *)
  with_server (fun srv ->
      ignore (Server.respond srv "MUL 625");
      ignore (Server.respond srv "DIV 7");
      let reply = Server.respond srv "METRICS" in
      match Obs.Export.parse_prometheus reply with
      | Error msg -> Alcotest.failf "scrape does not parse: %s" msg
      | Ok samples ->
          List.iter
            (fun name ->
              match Obs.Export.find samples name with
              | Some v ->
                  Alcotest.(check bool) (name ^ " positive") true (v > 0.0)
              | None -> Alcotest.failf "missing %s" name)
            [
              "hppa_plan_candidates_total";
              "hppa_plan_selections_total";
              "hppa_serve_plan_artifacts";
            ];
          let arts = Server.artifacts srv in
          Alcotest.(check int) "two artifacts" 2 (List.length arts);
          let strategies =
            List.map (fun (_, a) -> a.Plan.strategy) arts
          in
          Alcotest.(check bool) "chain chosen for 625" true
            (List.mem "mul_const_chain" strategies);
          Alcotest.(check bool) "div_const chosen for 7" true
            (List.mem "div_const" strategies);
          List.iter
            (fun (_, a) ->
              match a.Plan.digest with
              | Some d ->
                  Alcotest.(check int) "content address is MD5 hex" 32
                    (String.length d)
              | None -> Alcotest.fail "artifact missing digest")
            arts)

let test_certified_serving () =
  (* A --certified server answers byte-for-byte like an ordinary one,
     and every cached plan artifact carries a certificate digest (the
     hppa_serve_plan_artifacts_certified gauge tracks the total). *)
  let requests =
    [
      "MUL 625"; "MUL -7"; "DIV 7"; "DIV -9"; "DIV 16"; "DIV 1";
      "W64MUL u 123 456"; "W64DIV s -7 3"; "W64REM u 100 7";
      "W64DIVL 0 100 7";
    ]
  in
  let plain =
    with_server (fun srv -> List.map (Server.respond srv) requests)
  in
  with_server ~certified:true (fun srv ->
      List.iter2
        (fun req expected ->
          Alcotest.(check string) (req ^ " bytes unchanged") expected
            (Server.respond srv req))
        requests plain;
      let arts = Server.artifacts srv in
      Alcotest.(check bool) "artifacts recorded" true (arts <> []);
      List.iter
        (fun (key, a) ->
          match (a.Plan.cert_kind, a.Plan.cert_digest) with
          | Some _, Some d ->
              Alcotest.(check int)
                (key ^ " cert digest is MD5 hex")
                32 (String.length d)
          | _ -> Alcotest.failf "%s served without a certificate" key)
        arts;
      let reply = Server.respond srv "METRICS" in
      match Obs.Export.parse_prometheus reply with
      | Error msg -> Alcotest.failf "scrape does not parse: %s" msg
      | Ok samples -> (
          match
            Obs.Export.find samples "hppa_serve_plan_artifacts_certified"
          with
          | Some v ->
              Alcotest.(check (float 0.0))
                "all artifacts certified"
                (float_of_int (List.length arts))
                v
          | None -> Alcotest.fail "missing certified-artifacts gauge"))

let test_plans_warm_start () =
  let module A = Hppa_plan.Autotune in
  let meas ~strategy ~request ~digest =
    {
      A.strategy;
      request;
      entry = "e";
      digest;
      workload = "w";
      samples = 1;
      total_cycles = 10;
      mean_cycles = 10.0;
      min_cycles = 10;
      max_cycles = 10;
      used_engine = true;
      batch_width = 1;
      cert_kind = None;
      cert_digest = None;
    }
  in
  let store = A.Store.create () in
  A.Store.add store
    (meas ~strategy:"mul_const_chain" ~request:"mul.c625.s" ~digest:"d1");
  A.Store.add store
    (meas ~strategy:"div_const" ~request:"div.c7.u" ~digest:"d2");
  (* Variable requests have no MUL/DIV form: skipped, not fatal. *)
  A.Store.add store
    (meas ~strategy:"div_millicode" ~request:"div.var.u" ~digest:"d3");
  let path = Filename.temp_file "hppa_plans" ".json" in
  (match A.Store.save store path with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let cold =
    with_server (fun srv -> Server.respond srv "MUL 625")
  in
  let cfg =
    { (test_config 1) with Server.Config.plans_path = Some path }
  in
  let srv = Server.create cfg in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown_pool srv;
      Sys.remove path)
    (fun () ->
      Alcotest.(check int) "two plans warmed" 2
        (List.length (Server.artifacts srv));
      let warm = Server.respond srv "MUL 625" in
      Alcotest.(check string) "warm reply = cold reply" cold warm;
      (* Both requests so far were pre-computed: all hits, no misses. *)
      ignore (Server.respond srv "DIV 7");
      let stats = Server.respond srv "STATS" in
      Alcotest.(check bool)
        (Printf.sprintf "hits counted (%s)" stats)
        true
        (contains ~needle:"cache_hits=2" stats);
      Alcotest.(check bool) "no misses" true
        (contains ~needle:"cache_misses=0" stats));
  (* A missing store file warms nothing and does not fail startup. *)
  let cfg =
    {
      (test_config 1) with
      Server.Config.plans_path = Some "no-such-plans.json";
    }
  in
  let srv = Server.create cfg in
  Fun.protect
    ~finally:(fun () -> Server.shutdown_pool srv)
    (fun () ->
      Alcotest.(check int) "nothing warmed" 0
        (List.length (Server.artifacts srv)))

let test_stats_and_scrape_agree () =
  (* STATS and METRICS must be two views of the same registry cells. *)
  with_server (fun srv ->
      for i = 1 to 10 do
        ignore (Server.respond srv (Printf.sprintf "MUL %d" (600 + i)))
      done;
      ignore (Server.respond srv "NOPE");
      let stats = Server.respond srv "STATS" in
      let samples =
        Result.get_ok (Obs.Export.parse_prometheus (Server.metrics_payload srv))
      in
      let requests =
        int_of_float
          (Option.get (Obs.Export.find samples "hppa_serve_requests_total"))
      in
      let errors =
        int_of_float
          (Option.get (Obs.Export.find samples "hppa_serve_errors_total"))
      in
      (* STATS was issued after 11 recorded requests; the scrape then
         additionally includes the STATS request itself. *)
      Alcotest.(check bool)
        (Printf.sprintf "stats %s mentions requests=%d" stats (requests - 1))
        true
        (contains ~needle:(Printf.sprintf "requests=%d" (requests - 1)) stats);
      Alcotest.(check bool)
        (Printf.sprintf "stats mentions errors=%d" errors)
        true
        (contains ~needle:(Printf.sprintf "errors=%d" errors) stats))

let test_eval_fuel_limit () =
  with_server ~fuel:5 (fun srv ->
      check_reply srv "EVAL divU 100 7" ~ok:false [ "fuel" ])

let test_eval_resets_machine_state () =
  with_server (fun srv ->
      let a = Server.respond srv "EVAL divU 1000 7" in
      (* A different request in between must not change the reply. *)
      ignore (Server.respond srv "EVAL mulI -55 1234");
      let b = Server.respond srv "EVAL divU 1000 7" in
      Alcotest.(check string) "history independent" a b)

(* ------------------------------------------------------------------ *)
(* End to end over a real socket                                       *)

let test_end_to_end () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "hppa_test.sock" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let cfg =
    {
      (test_config 2) with
      Server.Config.endpoint = Server.Config.Unix_socket path;
      cache_capacity = 256;
    }
  in
  let srv = Server.create cfg in
  let th = Thread.create (fun () -> Server.run srv) () in
  (* Wait for the socket to appear. *)
  let rec wait tries =
    if tries = 0 then Alcotest.fail "server socket never appeared";
    if not (Sys.file_exists path) then begin
      Thread.delay 0.05;
      wait (tries - 1)
    end
  in
  wait 100;
  let summary =
    match
      Load_gen.run
        ~endpoint:(Server.Config.Unix_socket path)
        ~requests:300 ~conns:3 ~dist:Load_gen.Mixed ~seed:7L ()
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "load_gen: %s" e
  in
  Alcotest.(check int) "all requests answered" 300 summary.Load_gen.requests;
  Alcotest.(check int) "zero errors" 0 summary.Load_gen.errors;
  Alcotest.(check bool) "server stats scraped" true
    (summary.Load_gen.server_stats <> []);
  (* Batched traffic against the same server: every lane answered, the
     first-batch byte-identity cross-check clean. *)
  let batched =
    match
      Load_gen.run ~batch_width:8
        ~endpoint:(Server.Config.Unix_socket path)
        ~requests:300 ~conns:3 ~dist:Load_gen.Zipf ~seed:7L ()
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "load_gen batched: %s" e
  in
  Alcotest.(check int) "batched: all requests answered" 300
    batched.Load_gen.requests;
  Alcotest.(check int) "batched: zero errors" 0 batched.Load_gen.errors;
  Alcotest.(check int) "batched: zero mismatches" 0
    batched.Load_gen.batch_mismatches;
  (* Graceful stop: run returns and the socket file is gone. *)
  Server.stop srv;
  Thread.join th;
  Alcotest.(check bool) "socket removed" false (Sys.file_exists path)

let test_load_gen_connect_failure () =
  match
    Load_gen.run
      ~endpoint:
        (Server.Config.Unix_socket "/nonexistent/definitely-missing.sock")
      ~requests:5 ~conns:1 ~dist:Load_gen.Zipf ~seed:1L ()
  with
  | Ok _ -> Alcotest.fail "connected to nothing"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Golden replies: the exact bytes the pre-redesign threaded server
   produced, captured before the event-loop/sharding rewrite. Any diff
   here is a wire-format regression, not a refactor. *)

let golden_replies =
  [
    ( "MUL 625",
      "OK MUL n=625 steps=4 insns=4 cycles=4 temps=0 overflow_safe=false \
       chain=a2=a1<<5;a3=a2-a1;a4=4*a3+a1;a5=4*a4+a4 code=mulc_625: | zdep \
       r26, 5, 27, r28 | sub r28, r26, r28 | sh2add r28, r26, r28 | sh2add \
       r28, r28, r28 | bv r0(r31)" );
    ( "MUL 0",
      "OK MUL n=0 steps=0 insns=1 cycles=1 temps=0 overflow_safe=false \
       chain=- code=mulc_0: | ldo 0(r0), r28 | bv r0(r31)" );
    ( "MUL -7",
      "OK MUL n=-7 steps=2 insns=3 cycles=3 temps=0 overflow_safe=false \
       chain=a2=a0-a1;a3=8*a1+a2 code=mulc_m7: | sub r0, r26, r28 | sh3add \
       r26, r28, r28 | sub r0, r28, r28 | bv r0(r31)" );
    ( "MUL 1",
      "OK MUL n=1 steps=0 insns=1 cycles=1 temps=0 overflow_safe=true \
       chain= code=mulc_1: | ldo 0(r26), r28 | bv r0(r31)" );
    ( "DIV 7",
      "OK DIV d=7 signed=false \
       strategy=reciprocal:z=2^33,a=1227133513,b=1227133513,chain=7 \
       insns=21 cycles=21 needs_millicode=false code=divu_c7: | addi 1, \
       r26, r20 | addc r0, r0, r19 | shd r19, r20, 29, r21 | zdep r20, 3, \
       29, r22 | shd r21, r22, 29, r29 | sh3add r22, r20, r28 | addc r29, \
       r19, r29 | shd r29, r28, 29, r21 | sh3add r28, r28, r22 | addc r21, \
       r29, r21 | shd r21, r22, 29, r29 | sh3add r22, r20, r28 | addc r29, \
       r19, r29 | shd r29, r28, 17, r21 | zdep r28, 15, 17, r22 | add r22, \
       r28, r22 | addc r21, r29, r21 | shd r21, r22, 29, r29 | sh3add r22, \
       r20, r28 | addc r29, r19, r29 | extru r29, 1, 31, r28 | bv r0(r31)" );
    ( "DIV 16",
      "OK DIV d=16 signed=false strategy=shift:4 insns=1 cycles=1 \
       needs_millicode=false code=divu_c16: | extru r26, 4, 28, r28 | bv \
       r0(r31)" );
    ( "DIV -9",
      "OK DIV d=-9 signed=true \
       strategy=reciprocal:z=2^34,a=1908874353,b=1908874359,chain=9 \
       insns=31 cycles=31 needs_millicode=false code=divi_cm9: | ldo \
       0(r26), r1 | comclr,>= r26, r0, r0 | sub r0, r26, r26 | addi 1, \
       r26, r20 | addc r0, r0, r19 | sub r0, r20, r22 | subb r0, r19, r21 \
       | shd r19, r20, 29, r29 | sh3add r20, r22, r28 | addc r29, r21, r29 \
       | shd r29, r28, 26, r21 | zdep r28, 6, 26, r22 | add r22, r28, r22 \
       | addc r21, r29, r21 | shd r21, r22, 29, r29 | sh3add r22, r20, r28 \
       | addc r29, r19, r29 | shd r29, r28, 17, r21 | zdep r28, 15, 17, \
       r22 | sub r22, r28, r22 | subb r21, r29, r21 | shd r21, r22, 29, \
       r21 | zdep r22, 3, 29, r22 | shd r21, r22, 31, r29 | sh1add r22, \
       r20, r28 | addc r29, r19, r29 | addi 6, r28, r28 | addc r0, r29, \
       r29 | extru r29, 2, 30, r28 | comclr,< r1, r0, r0 | sub r0, r28, \
       r28 | bv r0(r31)" );
    ("DIV 0", "ERR range division by zero");
    ( "W64MUL u 123 456",
      "OK W64MUL signed=false x=123 y=456 hi=0 lo=56088 cycles=335 \
       entry=mulU128" );
    ( "W64MUL s -7 3",
      "OK W64MUL signed=true x=-7 y=3 hi=-1 lo=-21 cycles=345 \
       entry=mulI128" );
    ( "W64DIV s -7 3",
      "OK W64DIV signed=true x=-7 y=3 q=-2 r=-1 cycles=195 entry=divI64w" );
    ( "W64DIV u 10000000000 3",
      "OK W64DIV signed=false x=10000000000 y=3 q=3333333333 r=1 \
       cycles=175 entry=divU64w" );
    ( "W64REM u 100 7",
      "OK W64REM signed=false x=100 y=7 r=2 cycles=177 entry=remU64w" );
    ("W64DIV u 5 0", "ERR trap divU64w: break trap (code 0)");
    ( "EVAL mulI 99 -7",
      "OK EVAL entry=mulI ret0=-693 ret1=0 cycles=23 engine=true" );
    ( "EVAL divU 100 7",
      "OK EVAL entry=divU ret0=14 ret1=2 cycles=74 engine=true" );
    ("PING", "OK pong");
    ("QUIT", "OK bye");
  ]

let golden_batches =
  (* header :: lanes, joined with newlines by the server *)
  [
    ( "MULB 625 -7 0",
      [
        "OK MULB k=3";
        List.assoc "MUL 625" golden_replies;
        List.assoc "MUL -7" golden_replies;
        List.assoc "MUL 0" golden_replies;
      ] );
    ( "DIVB 7 0 16",
      [
        "OK DIVB k=3";
        List.assoc "DIV 7" golden_replies;
        "ERR range division by zero";
        List.assoc "DIV 16" golden_replies;
      ] );
    ( "W64DIVB s 10 3 5 0",
      [
        "OK W64DIVB k=2";
        "OK W64DIV signed=true x=10 y=3 q=3 r=1 cycles=189 entry=divI64w";
        "ERR trap divI64w: break trap (code 0)";
      ] );
  ]

(* The W64 wire, pinned before its verbs became rows of one kernel
   table: scalar and batch replies for every row and both signedness
   tags (trapping lanes included), the exact error string of every
   parse failure of each operand shape, and the artifact a certified
   server records for every entry. Captured from the server as it stood
   before that refactor, never regenerated from the code under test. *)

let golden_w64_replies =
  [
    ( "W64MUL u 123 456",
      "OK W64MUL signed=false x=123 y=456 hi=0 lo=56088 cycles=335 \
       entry=mulU128" );
    ( "W64MUL s -7 3",
      "OK W64MUL signed=true x=-7 y=3 hi=-1 lo=-21 cycles=345 entry=mulI128" );
    ( "W64MUL u -1 -1",
      "OK W64MUL signed=false x=-1 y=-1 hi=-2 lo=1 cycles=1022 entry=mulU128" );
    ( "W64MUL s -9223372036854775808 -1",
      "OK W64MUL signed=true x=-9223372036854775808 y=-1 hi=0 \
       lo=-9223372036854775808 cycles=504 entry=mulI128" );
    ( "W64DIV u 10000000000 3",
      "OK W64DIV signed=false x=10000000000 y=3 q=3333333333 r=1 cycles=175 \
       entry=divU64w" );
    ( "W64DIV s -7 3",
      "OK W64DIV signed=true x=-7 y=3 q=-2 r=-1 cycles=195 entry=divI64w" );
    ( "W64DIV s -9223372036854775808 -1",
      "ERR trap divI64w: break trap (code 1)" );
    ( "W64DIV s 5 0",
      "ERR trap divI64w: break trap (code 0)" );
    ( "W64REM u 100 7",
      "OK W64REM signed=false x=100 y=7 r=2 cycles=177 entry=remU64w" );
    ( "W64REM s -100 7",
      "OK W64REM signed=true x=-100 y=7 r=-2 cycles=197 entry=remI64w" );
    ( "W64REM u 5 0",
      "ERR trap remU64w: break trap (code 0)" );
    ( "W64REM s -9223372036854775808 -1",
      "ERR trap remI64w: break trap (code 1)" );
    ( "W64DIVL 0 100 7",
      "OK W64DIVL xhi=0 xlo=100 y=7 q=14 r=2 cycles=172 entry=divU128by64" );
    ( "W64DIVL 1 0 3",
      "OK W64DIVL xhi=1 xlo=0 y=3 q=6148914691236517205 r=1 cycles=172 \
       entry=divU128by64" );
    ( "W64DIVL 5 0 5",
      "ERR trap divU128by64: break trap (code 1)" );
    ( "W64DIVL 0 5 0",
      "ERR trap divU128by64: break trap (code 0)" );
  ]

let golden_w64_batches =
  [
    ( "W64MULB s -7 3 4294967297 4294967297",
      [
        "OK W64MULB k=2";
        "OK W64MUL signed=true x=-7 y=3 hi=-1 lo=-21 cycles=345 entry=mulI128";
        "OK W64MUL signed=true x=4294967297 y=4294967297 hi=1 lo=8589934593 \
         cycles=330 entry=mulI128";
      ] );
    ( "W64MULB u 1 2 -1 -1",
      [
        "OK W64MULB k=2";
        "OK W64MUL signed=false x=1 y=2 hi=0 lo=2 cycles=315 entry=mulU128";
        "OK W64MUL signed=false x=-1 y=-1 hi=-2 lo=1 cycles=1022 entry=mulU128";
      ] );
    ( "W64DIVB u 10 3 5 0 -1 7",
      [
        "OK W64DIVB k=3";
        "OK W64DIV signed=false x=10 y=3 q=3 r=1 cycles=175 entry=divU64w";
        "ERR trap divU64w: break trap (code 0)";
        "OK W64DIV signed=false x=-1 y=7 q=2635249153387078802 r=1 \
         cycles=175 entry=divU64w";
      ] );
    ( "W64DIVB s -9223372036854775808 -1 100 -7",
      [
        "OK W64DIVB k=2";
        "ERR trap divI64w: break trap (code 1)";
        "OK W64DIV signed=true x=100 y=-7 q=-14 r=2 cycles=193 entry=divI64w";
      ] );
    ( "W64REMB s -100 7 5 0",
      [
        "OK W64REMB k=2";
        "OK W64REM signed=true x=-100 y=7 r=-2 cycles=197 entry=remI64w";
        "ERR trap remI64w: break trap (code 0)";
      ] );
    ( "W64REMB u 100 7 -1 10",
      [
        "OK W64REMB k=2";
        "OK W64REM signed=false x=100 y=7 r=2 cycles=177 entry=remU64w";
        "OK W64REM signed=false x=-1 y=10 r=5 cycles=177 entry=remU64w";
      ] );
    ( "W64DIVLB 0 100 7 5 0 5 1 0 3",
      [
        "OK W64DIVLB k=3";
        "OK W64DIVL xhi=0 xlo=100 y=7 q=14 r=2 cycles=172 entry=divU128by64";
        "ERR trap divU128by64: break trap (code 1)";
        "OK W64DIVL xhi=1 xlo=0 y=3 q=6148914691236517205 r=1 cycles=172 \
         entry=divU128by64";
      ] );
  ]

let golden_parse_errors =
  [
    ("MUL",
     "ERR parse MUL takes exactly one integer");
    ("MUL 1 2",
     "ERR parse MUL takes exactly one integer");
    ("DIV",
     "ERR parse DIV takes exactly one integer");
    ("MULB",
     "ERR parse MULB needs at least one integer");
    ("DIVB",
     "ERR parse DIVB needs at least one integer");
    ("MUL 2a",
     "ERR parse bad integer \"2a\"");
    ("DIVB 1 x",
     "ERR parse bad integer \"x\"");
    ("MUL 99999999999999",
     "ERR range 99999999999999 does not fit in 32 bits");
    ("W64MUL",
     "ERR parse W64MUL takes a signedness and two integers");
    ("W64MUL u",
     "ERR parse W64MUL takes a signedness and two integers");
    ("W64MUL u 5",
     "ERR parse W64MUL takes a signedness and two integers");
    ("W64MUL u 5 7 9",
     "ERR parse W64MUL takes a signedness and two integers");
    ("W64MUL 5 7",
     "ERR parse W64MUL takes a signedness and two integers");
    ("W64MUL x 5 7",
     "ERR parse bad signedness \"x\" (expected u or s)");
    ("W64DIV u 99999999999999999999 3",
     "ERR parse bad integer \"99999999999999999999\"");
    ("W64REM s one 2",
     "ERR parse bad integer \"one\"");
    ("W64MULB",
     "ERR parse W64MULB needs a signedness and operand pairs");
    ("W64MULB u",
     "ERR parse W64MULB needs at least one operand pair");
    ("W64MULB x 1 2",
     "ERR parse bad signedness \"x\" (expected u or s)");
    ("W64DIVB u 1 2 3",
     "ERR parse W64DIVB takes x y operand pairs (odd operand count)");
    ("W64REMB s 1 2 three 4",
     "ERR parse bad integer \"three\"");
    ("W64DIVL",
     "ERR parse W64DIVL takes three integers (dividend hi, dividend lo, \
      divisor)");
    ("W64DIVL 1 2",
     "ERR parse W64DIVL takes three integers (dividend hi, dividend lo, \
      divisor)");
    ("W64DIVL 1 2 3 4",
     "ERR parse W64DIVL takes three integers (dividend hi, dividend lo, \
      divisor)");
    ("W64DIVL u 1 2 3",
     "ERR parse W64DIVL takes three integers (dividend hi, dividend lo, \
      divisor)");
    ("W64DIVL 1 two 3",
     "ERR parse bad integer \"two\"");
    ("W64DIVLB",
     "ERR parse W64DIVLB needs at least one operand triple");
    ("W64DIVLB 1 2 3 4",
     "ERR parse W64DIVLB takes xhi xlo y operand triples (operand count not \
      a multiple of three)");
    ("W64DIVLB 1 2 x",
     "ERR parse bad integer \"x\"");
  ]

let golden_certified_artifacts =
  [
    ( "W64DIV s -7 3",
      "strategy=w64_div_millicode entry=via_divI64w insns=1 score=200 \
       digest=3ad13812342f47b4d1627f10e1218b48 \
       cert=body_equiv:678fca3da910a41af30b9b46417cfec1" );
    ( "W64DIV u 10000000000 3",
      "strategy=w64_div_millicode entry=via_divU64w insns=1 score=200 \
       digest=be9d2d72758f0edfcd12eb0fa96f98ab \
       cert=body_equiv:969829d713584a164244a3837d896ebb" );
    ( "W64DIVL 0 100 7",
      "strategy=w64_divl_millicode entry=via_divU128by64 insns=1 score=220 \
       digest=032bc9a4b6d1f61b80bcc3c0e94d32bd \
       cert=body_equiv:fad9cc36485f65e710dd52c81145c3b2" );
    ( "W64MUL s -7 3",
      "strategy=w64_mul_millicode entry=via_mulI128 insns=1 score=200 \
       digest=aa7f4d3eb674a86a435a1c22392de6a3 \
       cert=body_equiv:c93b772ecc707585da224524e4fd025d" );
    ( "W64MUL u 123 456",
      "strategy=w64_mul_millicode entry=via_mulU128 insns=1 score=200 \
       digest=59a0a54d7dc79f2e41bd39be7e98ed02 \
       cert=body_equiv:eb773133b713380b9488695b3cfd35ef" );
    ( "W64REM s -100 7",
      "strategy=w64_div_millicode entry=via_remI64w insns=1 score=200 \
       digest=722a381a21c712cac141f876ebbb4065 \
       cert=body_equiv:d471187893157f678fa867fe1a2178a8" );
    ( "W64REM u 100 7",
      "strategy=w64_div_millicode entry=via_remU64w insns=1 score=200 \
       digest=ccbfc6b4c92b4b4c4d83937c54985e32 \
       cert=body_equiv:e9c97c46874c8ffff69c124eb897b116" );
  ]


(* Exactly-the-cap batches: the header plus [k] copies of one lane. *)
let golden_cap_batches =
  let ones n tok = String.concat " " (List.init n (fun _ -> tok)) in
  [
    ( "MULB " ^ ones 64 "1",
      "OK MULB k=64",
      64,
      List.assoc "MUL 1" golden_replies );
    ( "W64MULB u " ^ ones 16 "1 1",
      "OK W64MULB k=16",
      16,
      "OK W64MUL signed=false x=1 y=1 hi=0 lo=1 cycles=312 entry=mulU128" );
    ( "W64DIVLB " ^ ones 10 "0 1 1",
      "OK W64DIVLB k=10",
      10,
      "OK W64DIVL xhi=0 xlo=1 y=1 q=1 r=0 cycles=172 entry=divU128by64" );
  ]

(* ... and one more lane than the cap rejects the whole batch. *)
let golden_over_cap =
  let ones n tok = String.concat " " (List.init n (fun _ -> tok)) in
  [
    ("MULB " ^ ones 65 "1", "ERR parse MULB takes at most 64 integers");
    ( "W64MULB u " ^ ones 17 "1 1",
      "ERR parse W64MULB takes at most 16 operand pairs" );
    ( "W64DIVLB " ^ ones 11 "0 1 1",
      "ERR parse W64DIVLB takes at most 10 operand triples" );
  ]

let test_golden_replies () =
  with_server ~workers:2 (fun srv ->
      List.iter
        (fun (request, expected) ->
          Alcotest.(check string) request expected (Server.respond srv request))
        golden_replies;
      List.iter
        (fun (request, lines) ->
          Alcotest.(check string)
            request
            (String.concat "\n" lines)
            (Server.respond srv request))
        golden_batches)

let test_golden_w64_rows () =
  with_server ~workers:2 (fun srv ->
      List.iter
        (fun (request, expected) ->
          Alcotest.(check string) request expected (Server.respond srv request))
        golden_w64_replies;
      List.iter
        (fun (request, lines) ->
          Alcotest.(check string)
            request
            (String.concat "\n" lines)
            (Server.respond srv request))
        golden_w64_batches;
      List.iter
        (fun (request, header, k, lane) ->
          Alcotest.(check string)
            (String.sub request 0 12)
            (String.concat "\n" (header :: List.init k (fun _ -> lane)))
            (Server.respond srv request))
        golden_cap_batches)

let test_golden_parse_errors () =
  with_server (fun srv ->
      List.iter
        (fun (request, expected) ->
          Alcotest.(check string)
            (String.sub request 0 (min 20 (String.length request)))
            expected (Server.respond srv request))
        (golden_parse_errors @ golden_over_cap))

let test_golden_certified_artifacts () =
  with_server ~certified:true (fun srv ->
      List.iter
        (fun (request, _) -> ignore (Server.respond srv request))
        golden_certified_artifacts;
      List.iter
        (fun (key, expected) ->
          match List.assoc_opt key (Server.artifacts srv) with
          | Some a ->
              Alcotest.(check string) key expected (Plan.render_artifact a)
          | None -> Alcotest.failf "%s recorded no artifact" key)
        golden_certified_artifacts)


(* Shard-count independence: the reply bytes may not depend on how the
   cache is partitioned. *)
let test_shard_count_byte_identity () =
  let requests =
    List.map fst golden_replies
    @ List.map fst golden_batches
    @ [ "MULB 5 5 5"; "W64MULB u 1 2 3 4"; "EVAL divU 1000 7" ]
  in
  let replies_with shards =
    with_server ~workers:shards (fun srv ->
        List.map (Server.respond srv) requests)
  in
  let s1 = replies_with 1 and s4 = replies_with 4 in
  List.iter2
    (fun a b -> Alcotest.(check string) "shards 1 = shards 4" a b)
    s1 s4

(* ------------------------------------------------------------------ *)
(* The event loop over a real socket: partial writes, pipelining,
   ordering, back-pressure, QUIT semantics                             *)

let with_socket_server ?(config = fun c -> c) f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hppa_ev_%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let cfg =
    config
      {
        (test_config 2) with
        Server.Config.endpoint = Server.Config.Unix_socket path;
        cache_capacity = 256;
      }
  in
  let srv = Server.create cfg in
  let th = Thread.create (fun () -> Server.run srv) () in
  let rec wait tries =
    if tries = 0 then Alcotest.fail "server socket never appeared";
    if not (Sys.file_exists path) then begin
      Thread.delay 0.02;
      wait (tries - 1)
    end
  in
  wait 250;
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Thread.join th)
    (fun () -> f path)

let connect_client path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

(* Read one logical reply: a line, a batch header plus its lanes, or a
   METRICS scrape up to "# EOF" — reconstructed without the trailing
   newline, exactly the [Server.respond] rendering. *)
let read_reply ic =
  let first = input_line ic in
  if Server.is_batch_reply first then begin
    let k =
      match String.split_on_char '=' first with
      | [ _; k ] -> int_of_string k
      | _ -> Alcotest.failf "bad batch header %S" first
    in
    let lanes = List.init k (fun _ -> input_line ic) in
    String.concat "\n" (first :: lanes)
  end
  else if Server.is_scrape first then begin
    let buf = Buffer.create 1024 in
    Buffer.add_string buf first;
    let rec go () =
      let line = input_line ic in
      Buffer.add_char buf '\n';
      Buffer.add_string buf line;
      if line <> "# EOF" then go ()
    in
    go ();
    Buffer.contents buf
  end
  else first

(* A mixed request stream written as one byte stream whose chunk
   boundaries fall at arbitrary (seeded-random) offsets — mid-token,
   mid-line, several lines at once — must produce exactly the replies
   the blocking oracle produces, in order. *)
let test_socket_partial_writes () =
  let requests =
    [
      "MUL 625"; "DIV 7"; "W64MUL u 123 456"; "MULB 625 -7 0"; "DIV 0";
      "EVAL mulI 99 -7"; "W64DIVB s 10 3 5 0"; "PING"; "MUL -7"; "DIV 16";
      "STATS"; "W64REM u 100 7"; "FROB 1"; "MUL 2a";
    ]
  in
  let expected =
    with_server ~workers:2 (fun oracle ->
        List.map (Server.respond oracle) requests)
  in
  (* STATS moves with traffic; only pin its shape. *)
  let stats_like = contains ~needle:"requests=" in
  let stream = String.concat "\n" requests ^ "\n" in
  with_socket_server (fun path ->
      let g = Prng.create 0xF122ED5L in
      for _round = 1 to 4 do
        let fd = connect_client path in
        let ic = Unix.in_channel_of_descr fd in
        let writer =
          Thread.create
            (fun () ->
              let n = String.length stream in
              let off = ref 0 in
              while !off < n do
                let len = min (n - !off) (1 + Prng.int_range g 0 6) in
                write_all fd (String.sub stream !off len);
                off := !off + len;
                if Prng.int_range g 0 3 = 0 then Thread.delay 0.001
              done)
            ()
        in
        let got = List.map (fun _ -> read_reply ic) requests in
        Thread.join writer;
        List.iter2
          (fun (request, e) g ->
            if request = "STATS" then
              Alcotest.(check bool) "STATS shaped" true (stats_like g)
            else Alcotest.(check string) ("split " ^ request) e g)
          (List.combine requests expected)
          got;
        Unix.close fd
      done)

(* Pipelining: one connection, hundreds of requests written before any
   reply is read (past pipeline_depth, so back-pressure engages), and
   every reply comes back byte-identical to the oracle, in request
   order. *)
let test_pipelined_ordering () =
  let g = Prng.create 0x9139E11EDL in
  let requests =
    List.init 240 (fun i ->
        match Prng.int_range g 0 4 with
        | 0 -> Printf.sprintf "MUL %d" (600 + (i mod 7))
        | 1 -> Printf.sprintf "DIV %d" (1 + (i mod 19))
        | 2 -> Printf.sprintf "W64DIV s %d 3" (i - 120)
        | 3 -> "PING"
        | _ -> Printf.sprintf "EVAL mulI %d -7" (i mod 50))
  in
  let expected =
    with_server ~workers:2 (fun oracle ->
        List.map (Server.respond oracle) requests)
  in
  with_socket_server (fun path ->
      let fd = connect_client path in
      let ic = Unix.in_channel_of_descr fd in
      write_all fd (String.concat "\n" requests ^ "\n");
      let got = List.map (fun _ -> read_reply ic) requests in
      List.iter2
        (fun e g -> Alcotest.(check string) "pipelined reply" e g)
        expected got;
      Unix.close fd)

(* A cold two-shard daemon plans exactly like a one-shard one while both
   shard domains plan fresh constants at once: the same keys go out
   pipelined over two connections, one in each order. The one-shard
   oracle runs afterwards, so it cannot warm anything the daemon reads. *)
let test_two_shards_cold_plans () =
  let requests =
    List.map
      (fun (op, v) ->
        Printf.sprintf "%s %d" (match op with `Mul -> "MUL" | `Div -> "DIV") v)
      Test_descent.race_keys
  in
  let served =
    with_socket_server
      ~config:(fun c -> { c with Server.Config.shards = 2 })
      (fun path ->
        let conns =
          List.map
            (fun order ->
              let fd = connect_client path in
              write_all fd (String.concat "\n" order ^ "\n");
              (fd, order))
            [ requests; List.rev requests ]
        in
        List.map
          (fun (fd, order) ->
            let ic = Unix.in_channel_of_descr fd in
            let replies = List.map (fun r -> (r, read_reply ic)) order in
            Unix.close fd;
            replies)
          conns)
  in
  let expected =
    with_server ~workers:1 (fun oracle ->
        List.map (fun r -> (r, Server.respond oracle r)) requests)
  in
  let digest replies =
    Test_descent.md5
      (List.map
         (fun r -> Printf.sprintf "%s\n%s\n" r (List.assoc r replies))
         requests)
  in
  Alcotest.(check string) "one-shard digest" Test_descent.race_digest
    (digest expected);
  List.iter
    (fun replies ->
      Alcotest.(check string) "two-shard digest" Test_descent.race_digest
        (digest replies);
      List.iter
        (fun (r, reply) ->
          Alcotest.(check string) r (List.assoc r expected) reply)
        replies)
    served

(* A tiny pipeline_depth must throttle, not deadlock or drop. *)
let test_pipeline_depth_backpressure () =
  with_socket_server
    ~config:(fun c -> { c with Server.Config.pipeline_depth = 2; shards = 1 })
    (fun path ->
      let fd = connect_client path in
      let ic = Unix.in_channel_of_descr fd in
      let n = 60 in
      write_all fd
        (String.concat ""
           (List.init n (fun i -> Printf.sprintf "MUL %d\n" (i mod 5))));
      for i = 0 to n - 1 do
        let reply = read_reply ic in
        Alcotest.(check bool)
          (Printf.sprintf "reply %d framed" i)
          true (Protocol.is_ok reply)
      done;
      Unix.close fd)

(* QUIT: replies already pipelined behind it are answered, the QUIT is
   acknowledged, later bytes are never parsed and the server closes. *)
let test_quit_closes_connection () =
  with_socket_server (fun path ->
      let fd = connect_client path in
      let ic = Unix.in_channel_of_descr fd in
      write_all fd "PING\nMUL 625\nQUIT\nPING\n";
      Alcotest.(check string) "ping" "OK pong" (read_reply ic);
      Alcotest.(check bool) "mul answered" true
        (Protocol.is_ok (read_reply ic));
      Alcotest.(check string) "bye" "OK bye" (read_reply ic);
      (match input_line ic with
      | l -> Alcotest.failf "reply after QUIT: %S" l
      | exception End_of_file -> ());
      Unix.close fd)

(* Open-loop load: the generator offers a fixed Poisson rate and the
   summary carries it; every request is answered. *)
let test_open_loop_load () =
  with_socket_server (fun path ->
      match
        Load_gen.run ~rate:2500.0
          ~endpoint:(Server.Config.Unix_socket path)
          ~requests:500 ~conns:2 ~dist:Load_gen.Zipf ~seed:11L ()
      with
      | Error e -> Alcotest.failf "open-loop: %s" e
      | Ok s ->
          Alcotest.(check int) "all answered" 500 s.Load_gen.requests;
          Alcotest.(check int) "zero errors" 0 s.Load_gen.errors;
          Alcotest.(check (option (float 0.01)))
            "offered rate recorded" (Some 2500.0) s.Load_gen.offered_rps);
  (* Open loop is scalar-only: rate + batch_width is a setup error. *)
  match
    Load_gen.run ~batch_width:4 ~rate:100.0
      ~endpoint:(Server.Config.Unix_socket "unused.sock")
      ~requests:10 ~conns:1 ~dist:Load_gen.Zipf ~seed:1L ()
  with
  | Ok _ -> Alcotest.fail "rate + batch_width accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "server:protocol",
      [
        Alcotest.test_case "valid requests" `Quick test_parse_valid;
        Alcotest.test_case "invalid requests" `Quick test_parse_invalid;
        Alcotest.test_case "fuzz: parse is total" `Quick test_fuzz_parse_total;
        Alcotest.test_case "fuzz: respond is total" `Quick
          test_fuzz_respond_total;
      ] );
    ( "server:cache",
      [
        Alcotest.test_case "lru basics" `Quick test_lru_basics;
        Alcotest.test_case "lru bad capacity" `Quick
          test_lru_rejects_bad_capacity;
        Alcotest.test_case "lru under 4 domains" `Quick test_lru_parallel;
      ] );
    ( "server:metrics",
      [
        Alcotest.test_case "percentiles" `Quick test_metrics_percentiles;
        Alcotest.test_case "per-verb histograms" `Quick test_metrics_per_verb;
      ] );
    ( "server:pool",
      [
        Alcotest.test_case "submit/shutdown" `Quick test_pool_submit;
        Alcotest.test_case "concurrent submitters" `Quick
          test_pool_concurrent_submitters;
        Alcotest.test_case "post observes queue wait" `Quick
          test_pool_post_observes_wait;
      ] );
    ( "server:determinism",
      [
        Alcotest.test_case "plans are pure" `Quick test_plan_pure;
        Alcotest.test_case "certified plans byte-identical" `Quick
          test_plan_certified_byte_identity;
        Alcotest.test_case "cold/warm/worker-count bytes" `Quick
          test_plan_bytes_cold_warm_workers;
        Alcotest.test_case "request normalization" `Quick
          test_normalized_requests_share_cache;
      ] );
    ( "server:dispatch",
      [
        Alcotest.test_case "semantics" `Quick test_dispatch_semantics;
        Alcotest.test_case "batch byte identity" `Quick
          test_batch_byte_identity;
        Alcotest.test_case "batch error lanes" `Quick test_batch_error_lanes;
        Alcotest.test_case "w64 semantics" `Quick test_w64_dispatch_semantics;
        Alcotest.test_case "w64 batch byte identity" `Quick
          test_w64_batch_byte_identity;
        Alcotest.test_case "divl semantics" `Quick test_divl_dispatch_semantics;
        Alcotest.test_case "divl batch byte identity" `Quick
          test_divl_batch_byte_identity;
        Alcotest.test_case "kernel rows: parse, keys, replies" `Quick
          test_kernel_rows_property;
        Alcotest.test_case "metrics scrape" `Quick test_metrics_scrape;
        Alcotest.test_case "selector metrics and artifacts" `Quick
          test_plan_selector_metrics;
        Alcotest.test_case "certified-only serving" `Quick
          test_certified_serving;
        Alcotest.test_case "BENCH_PLANS warm start" `Quick
          test_plans_warm_start;
        Alcotest.test_case "stats/scrape agreement" `Quick
          test_stats_and_scrape_agree;
        Alcotest.test_case "fuel limit" `Quick test_eval_fuel_limit;
        Alcotest.test_case "history independence" `Quick
          test_eval_resets_machine_state;
      ] );
    ( "server:golden",
      [
        Alcotest.test_case "pre-redesign reply bytes" `Quick
          test_golden_replies;
        Alcotest.test_case "shard-count byte identity" `Quick
          test_shard_count_byte_identity;
        Alcotest.test_case "w64 rows, both tags, caps" `Quick
          test_golden_w64_rows;
        Alcotest.test_case "parse error strings" `Quick
          test_golden_parse_errors;
        Alcotest.test_case "certified w64 artifacts" `Quick
          test_golden_certified_artifacts;
      ] );
    ( "server:pipeline",
      [
        Alcotest.test_case "split writes at fuzzed boundaries" `Quick
          test_socket_partial_writes;
        Alcotest.test_case "pipelined replies in order" `Quick
          test_pipelined_ordering;
        Alcotest.test_case "depth back-pressure" `Quick
          test_pipeline_depth_backpressure;
        Alcotest.test_case "quit closes the connection" `Quick
          test_quit_closes_connection;
        Alcotest.test_case "cold two shards plan like one" `Quick
          test_two_shards_cold_plans;
      ] );
    ( "server:e2e",
      [
        Alcotest.test_case "socket round trip" `Quick test_end_to_end;
        Alcotest.test_case "open-loop load" `Quick test_open_loop_load;
        Alcotest.test_case "connect failure" `Quick
          test_load_gen_connect_failure;
      ] );
  ]
