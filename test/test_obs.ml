(* Tests for the observability layer (lib/obs): exact counting under
   domains and threads, byte-stable exporters (golden files), the
   exposition parser round trip, trace-ring overflow, the machine's
   registry integration (engine/interpreter parity of hppa_sim_*
   families). *)

module Obs = Hppa_obs.Obs
module Machine = Hppa_machine.Machine

(* ------------------------------------------------------------------ *)
(* Counters, gauges, histograms                                        *)

let test_counter_basics () =
  let c = Obs.Counter.create () in
  Alcotest.(check int) "zero" 0 (Obs.Counter.get c);
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  Alcotest.(check int) "42" 42 (Obs.Counter.get c);
  Obs.Counter.reset c;
  Alcotest.(check int) "reset" 0 (Obs.Counter.get c)

let test_histogram_percentiles () =
  let h = Obs.Histogram.create () in
  Alcotest.(check (float 0.0)) "empty" 0.0 (Obs.Histogram.percentile h 99.0);
  for _ = 1 to 99 do
    Obs.Histogram.observe h 3.0
  done;
  Obs.Histogram.observe h 5000.0;
  Alcotest.(check int) "count" 100 (Obs.Histogram.count h);
  (* 3.0 lands in (2,4]: upper bound 4. *)
  Alcotest.(check (float 0.0)) "p50" 4.0 (Obs.Histogram.percentile h 50.0);
  Alcotest.(check (float 0.0)) "p99" 4.0 (Obs.Histogram.percentile h 99.0);
  Alcotest.(check (float 0.0)) "p100" 8192.0
    (Obs.Histogram.percentile h 100.0);
  (* Sub-microsecond observations take bucket 0 (upper bound 1). *)
  let h0 = Obs.Histogram.create () in
  Obs.Histogram.observe h0 0.25;
  Alcotest.(check (float 0.0)) "bucket 0" 1.0
    (Obs.Histogram.percentile h0 50.0)

(* Observations at or above 2^38 land in the explicit overflow bucket;
   percentiles whose rank falls there report +Inf, never a fake finite
   upper bound. *)
let test_histogram_overflow () =
  Alcotest.(check bool)
    "overflow upper bound is +Inf" true
    (Obs.Histogram.bucket_upper (Obs.Histogram.buckets - 1) = infinity);
  let h = Obs.Histogram.create () in
  for _ = 1 to 9 do
    Obs.Histogram.observe h 3.0
  done;
  Obs.Histogram.observe h 1e12 (* ~11.6 days in us: beyond 2^38 *);
  Alcotest.(check int) "count" 10 (Obs.Histogram.count h);
  Alcotest.(check (float 0.0)) "p50 stays finite" 4.0
    (Obs.Histogram.percentile h 50.0);
  Alcotest.(check bool) "p100 is +Inf" true
    (Obs.Histogram.percentile h 100.0 = infinity);
  (* The largest representable finite bucket still resolves finitely. *)
  let h2 = Obs.Histogram.create () in
  Obs.Histogram.observe h2 (Float.of_int (1 lsl 37));
  Alcotest.(check (float 0.0))
    "last finite bucket" (Float.of_int (1 lsl 38))
    (Obs.Histogram.percentile h2 100.0)

let count_substring needle hay =
  let nl = String.length needle and hl = String.length hay in
  let n = ref 0 in
  for i = 0 to hl - nl do
    if String.sub hay i nl = needle then incr n
  done;
  !n

(* An overflowed histogram must export exactly one +Inf bucket line
   (carrying the total), parse back, and stay valid JSON. *)
let test_histogram_overflow_export () =
  let reg = Obs.Registry.create () in
  let h = Obs.Registry.histogram reg "lat_us" in
  for _ = 1 to 9 do
    Obs.Histogram.observe h 3.0
  done;
  Obs.Histogram.observe h 1e12;
  let text = Obs.Export.prometheus (Obs.Registry.snapshot reg) in
  Alcotest.(check int)
    "exactly one +Inf bucket line" 1
    (count_substring "lat_us_bucket{le=\"+Inf\"}" text);
  Alcotest.(check int)
    "+Inf line carries the total" 1
    (count_substring "lat_us_bucket{le=\"+Inf\"} 10" text);
  Alcotest.(check int)
    "no lowercase inf leaks" 0
    (count_substring "le=\"inf\"" text);
  (match Obs.Export.parse_prometheus (text ^ "# EOF") with
  | Error msg -> Alcotest.failf "round trip failed: %s" msg
  | Ok samples ->
      Alcotest.(check (option (float 0.0)))
        "count round trips" (Some 10.0)
        (Obs.Export.find samples "lat_us_count"));
  let json = Obs.Export.json (Obs.Registry.snapshot reg) in
  Alcotest.(check int)
    "overflow bucket quoted in JSON" 1
    (count_substring "[\"+Inf\",10]" json);
  Alcotest.(check int) "no bare inf in JSON" 0 (count_substring "[inf" json)

(* ------------------------------------------------------------------ *)
(* Registry semantics                                                  *)

let test_registry_interning () =
  let reg = Obs.Registry.create () in
  let a = Obs.Registry.counter reg "x_total" in
  let b = Obs.Registry.counter reg "x_total" in
  Obs.Counter.incr a;
  Obs.Counter.incr b;
  (* Same (name, labels) -> same cell. *)
  Alcotest.(check int) "interned" 2 (Obs.Counter.get a);
  let l1 = Obs.Registry.counter reg ~labels:[ ("k", "v") ] "x_total" in
  Obs.Counter.incr l1;
  Alcotest.(check int) "labels distinguish" 1 (Obs.Counter.get l1);
  Alcotest.(check int) "unlabeled untouched" 2 (Obs.Counter.get a)

let test_registry_kind_mismatch () =
  let reg = Obs.Registry.create () in
  ignore (Obs.Registry.counter reg "x_total");
  (match Obs.Registry.gauge reg "x_total" with
  | _ -> Alcotest.fail "gauge over counter accepted"
  | exception Invalid_argument _ -> ());
  match Obs.Registry.histogram reg "x_total" with
  | _ -> Alcotest.fail "histogram over counter accepted"
  | exception Invalid_argument _ -> ()

let test_registry_concurrent_exact () =
  (* 4 domains x 4 threads x 5000 increments on one interned counter,
     plus racing get-or-create: totals must be exact. *)
  let reg = Obs.Registry.create () in
  let per_thread = 5_000 and threads = 4 and domains = 4 in
  let hist = Obs.Registry.histogram reg "lat_us" in
  let domain_body () =
    let ths =
      List.init threads (fun _ ->
          Thread.create
            (fun () ->
              let c = Obs.Registry.counter reg "hits_total" in
              for i = 1 to per_thread do
                Obs.Counter.incr c;
                Obs.Histogram.observe hist (float_of_int (i land 1023))
              done)
            ())
    in
    List.iter Thread.join ths
  in
  let ds = List.init domains (fun _ -> Domain.spawn domain_body) in
  List.iter Domain.join ds;
  let expected = domains * threads * per_thread in
  Alcotest.(check int) "counter exact" expected
    (Obs.Counter.get (Obs.Registry.counter reg "hits_total"));
  Alcotest.(check int) "histogram exact" expected (Obs.Histogram.count hist)

(* ------------------------------------------------------------------ *)
(* Exporter goldens                                                    *)

let golden_registry () =
  let reg = Obs.Registry.create () in
  let c = Obs.Registry.counter reg ~help:"Requests" "app_requests_total" in
  Obs.Counter.add c 3;
  let g = Obs.Registry.gauge reg ~help:"Temp" "app_temperature" in
  Obs.Gauge.set g 21.5;
  let h = Obs.Registry.histogram reg ~help:"Latency" "app_latency_us" in
  List.iter (Obs.Histogram.observe h) [ 0.5; 3.0; 3.5; 100.0 ];
  (* Labels render sorted by label name, whatever order they were
     declared in. *)
  let lc =
    Obs.Registry.counter reg ~help:"Labeled"
      ~labels:[ ("zone", "b"); ("app", "x") ]
      "app_labeled_total"
  in
  Obs.Counter.incr lc;
  reg

let prometheus_golden =
  "# HELP app_labeled_total Labeled\n\
   # TYPE app_labeled_total counter\n\
   app_labeled_total{app=\"x\",zone=\"b\"} 1\n\
   # HELP app_latency_us Latency\n\
   # TYPE app_latency_us histogram\n\
   app_latency_us_bucket{le=\"1\"} 1\n\
   app_latency_us_bucket{le=\"4\"} 3\n\
   app_latency_us_bucket{le=\"128\"} 4\n\
   app_latency_us_bucket{le=\"+Inf\"} 4\n\
   app_latency_us_sum 107\n\
   app_latency_us_count 4\n\
   # HELP app_requests_total Requests\n\
   # TYPE app_requests_total counter\n\
   app_requests_total 3\n\
   # HELP app_temperature Temp\n\
   # TYPE app_temperature gauge\n\
   app_temperature 21.5\n"

let json_golden =
  "{\"schema\":\"hppa-obs/1\",\"metrics\":[{\"name\":\"app_labeled_total\",\"type\":\"counter\",\"labels\":{\"app\":\"x\",\"zone\":\"b\"},\"value\":1},{\"name\":\"app_latency_us\",\"type\":\"histogram\",\"labels\":{},\"count\":4,\"sum\":107.0,\"buckets\":[[1.0,1],[4.0,3],[128.0,4]]},{\"name\":\"app_requests_total\",\"type\":\"counter\",\"labels\":{},\"value\":3},{\"name\":\"app_temperature\",\"type\":\"gauge\",\"labels\":{},\"value\":21.5}]}"

let test_prometheus_golden () =
  let out = Obs.Export.prometheus (Obs.Registry.snapshot (golden_registry ())) in
  Alcotest.(check string) "prometheus text" prometheus_golden out

let test_json_golden () =
  let out = Obs.Export.json (Obs.Registry.snapshot (golden_registry ())) in
  Alcotest.(check string) "json" json_golden out

let test_snapshot_order_stable () =
  (* Registration order must not leak into the export. *)
  let reg = Obs.Registry.create () in
  Obs.Counter.add (Obs.Registry.counter reg "z_total") 1;
  Obs.Counter.add (Obs.Registry.counter reg "a_total") 2;
  Obs.Counter.add (Obs.Registry.counter reg ~labels:[ ("l", "2") ] "m_total") 3;
  Obs.Counter.add (Obs.Registry.counter reg ~labels:[ ("l", "1") ] "m_total") 4;
  let names =
    List.map
      (fun s -> ((s : Obs.sample).name, s.labels))
      (Obs.Registry.snapshot reg)
  in
  Alcotest.(check (list (pair string (list (pair string string)))))
    "sorted by name then labels"
    [
      ("a_total", []);
      ("m_total", [ ("l", "1") ]);
      ("m_total", [ ("l", "2") ]);
      ("z_total", []);
    ]
    names

let test_parse_round_trip () =
  let text =
    Obs.Export.prometheus (Obs.Registry.snapshot (golden_registry ()))
    ^ "# EOF"
  in
  match Obs.Export.parse_prometheus text with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok samples ->
      Alcotest.(check (option (float 0.0)))
        "counter value" (Some 3.0)
        (Obs.Export.find samples "app_requests_total");
      Alcotest.(check (option (float 0.0)))
        "gauge value" (Some 21.5)
        (Obs.Export.find samples "app_temperature");
      Alcotest.(check (option (float 0.0)))
        "histogram count" (Some 4.0)
        (Obs.Export.find samples "app_latency_us_count");
      let labeled =
        List.find_opt
          (fun (n, _, _) -> n = "app_labeled_total")
          samples
      in
      match labeled with
      | Some (_, labels, v) ->
          Alcotest.(check (list (pair string string)))
            "labels" [ ("app", "x"); ("zone", "b") ] labels;
          Alcotest.(check (float 0.0)) "labeled value" 1.0 v
      | None -> Alcotest.fail "labeled sample missing"

let test_parse_rejects_garbage () =
  match Obs.Export.parse_prometheus "!!not a metric!!\n" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* The JSON value                                                      *)

(* Strings full of what the escaper must handle: control bytes, quotes,
   backslashes, slashes and bytes above 0x7f. *)
let gen_json_string =
  QCheck.Gen.(
    string_size (int_bound 12)
      ~gen:
        (frequency
           [
             (2, char_range '\000' '\031');
             (1, oneofl [ '"'; '\\'; '/' ]);
             (3, char_range ' ' '~');
             (2, char_range '\128' '\255');
           ]))

(* Floats that the printer writes exactly: quarters below 1000 ("%g"),
   integers below 1e15 ("%.1f"), and a few exponents. *)
let gen_json =
  let open QCheck.Gen in
  let leaf =
    frequency
      [
        (1, return Obs.Json.Null);
        (1, map (fun b -> Obs.Json.Bool b) bool);
        (2, map (fun i -> Obs.Json.Int i) int);
        ( 1,
          map
            (fun k -> Obs.Json.Float (float_of_int k /. 4.0))
            (int_range (-4000) 4000) );
        ( 1,
          map
            (fun k -> Obs.Json.Float (float_of_int k))
            (int_range (-(1 lsl 49)) (1 lsl 49)) );
        (1, map (fun f -> Obs.Json.Float f) (oneofl [ 1e20; -2.5e-7; 1e300 ]));
        (3, map (fun s -> Obs.Json.Str s) gen_json_string);
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           frequency
             [
               (3, leaf);
               ( 1,
                 map (fun l -> Obs.Json.List l)
                   (list_size (int_bound 4) (self (n / 4))) );
               ( 1,
                 map (fun l -> Obs.Json.Obj l)
                   (list_size (int_bound 4)
                      (pair gen_json_string (self (n / 4)))) );
             ])

(* The printed text is valid JSON (no raw byte below 0x20) and reads
   back as the same value. *)
let prop_json_round_trip =
  QCheck.Test.make ~name:"parse (to_string v) = v" ~count:1000
    (QCheck.make ~print:Obs.Json.to_string gen_json) (fun v ->
      let text = Obs.Json.to_string v in
      String.for_all (fun c -> c >= ' ') text && Obs.Json.parse text = Ok v)

let test_json_non_finite () =
  Alcotest.(check string)
    "quoted" "[\"+Inf\",\"-Inf\",\"NaN\"]"
    (Obs.Json.to_string
       (Obs.Json.List
          [
            Obs.Json.Float infinity;
            Obs.Json.Float neg_infinity;
            Obs.Json.Float nan;
          ]))

(* Escapes other writers produce, and the int/float split: an integer
   lexeme that fits is an Int; a fraction, an exponent or an int
   overflow makes a Float. *)
let test_json_parse_lexemes () =
  Alcotest.(check bool)
    "escapes" true
    (Obs.Json.parse {|" \u0041\u00e9\u20ac\r\b\f\/\u0001 "|}
    = Ok (Obs.Json.Str " A\xc3\xa9\xe2\x82\xac\r\b\012/\001 "));
  Alcotest.(check bool)
    "numbers" true
    (Obs.Json.parse " [2, 2.0, -7, 1e30, 99999999999999999999] "
    = Ok
        (Obs.Json.List
           [
             Obs.Json.Int 2; Obs.Json.Float 2.0; Obs.Json.Int (-7);
             Obs.Json.Float 1e30; Obs.Json.Float 1e20;
           ]));
  List.iter
    (fun bad ->
      match Obs.Json.parse bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ ""; "[1,]"; "{\"a\" 1}"; "\"\\x\""; "\"\\ud800\""; "[1] x"; "tru"; "-" ]

(* ------------------------------------------------------------------ *)
(* Trace ring                                                          *)

let test_trace_overflow () =
  let tr = Obs.Trace.create ~capacity:4 in
  for i = 0 to 9 do
    Obs.Trace.emit tr "tick" [ ("i", Obs.Trace.Int i) ]
  done;
  Alcotest.(check int) "emitted" 10 (Obs.Trace.emitted tr);
  Alcotest.(check int) "dropped" 6 (Obs.Trace.dropped tr);
  let evs = Obs.Trace.events tr in
  Alcotest.(check int) "retained" 4 (List.length evs);
  Alcotest.(check (list int))
    "oldest first, newest retained" [ 6; 7; 8; 9 ]
    (List.map (fun (e : Obs.Trace.event) -> e.seq) evs)

let test_trace_jsonl () =
  let tr = Obs.Trace.create ~capacity:8 in
  Obs.Trace.emit tr "run"
    [
      ("pc", Obs.Trace.Int 4096);
      ("us", Obs.Trace.Float 1.5);
      ("entry", Obs.Trace.Str "mulI");
      ("ok", Obs.Trace.Bool true);
    ];
  Alcotest.(check string)
    "jsonl"
    "{\"seq\":0,\"ev\":\"run\",\"pc\":4096,\"us\":1.5,\"entry\":\"mulI\",\"ok\":true}\n"
    (Obs.Trace.to_jsonl tr)

let test_trace_bad_capacity () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Obs.Trace.create: capacity must be > 0") (fun () ->
      ignore (Obs.Trace.create ~capacity:0))

(* ------------------------------------------------------------------ *)
(* Machine integration: engine/interpreter publish identical counts    *)

let sim_lines registry =
  Obs.Export.prometheus (Obs.Registry.snapshot registry)
  |> String.split_on_char '\n'
  |> List.filter (fun l ->
         String.length l >= 9 && String.sub l 0 9 = "hppa_sim_")

let test_engine_interpreter_parity () =
  let prog = Hppa.Millicode.resolved () in
  let run engine =
    let reg = Obs.Registry.create () in
    let config =
      { Machine.Config.default with engine; obs = Some reg }
    in
    let m = Machine.create ~config prog in
    List.iter
      (fun entry ->
        List.iter
          (fun (a, b) -> ignore (Machine.call m entry ~args:[ a; b ]))
          [ (99l, -7l); (0l, 0l); (12345l, 678l); (-1l, Int32.min_int) ])
      Hppa.Millicode.entries;
    (sim_lines reg, Machine.used_engine m)
  in
  let engine_lines, engine_used = run true in
  let interp_lines, interp_used = run false in
  Alcotest.(check bool) "engine path taken" true engine_used;
  Alcotest.(check bool) "interpreter path taken" false interp_used;
  Alcotest.(check (list string))
    "per-opcode counts identical" interp_lines engine_lines;
  Alcotest.(check bool) "counts nonempty" true (List.length engine_lines > 3)

module Stats = Hppa_machine.Stats

(* Histogram series are registered when their mnemonic first executes,
   so a machine that was never reset exposes no zero-valued one. *)
let zero_insn_lines lines =
  List.filter
    (fun l ->
      String.starts_with ~prefix:"hppa_sim_insns_total" l
      && String.ends_with ~suffix:" 0" l)
    lines

let operand_sets =
  [ (99l, -7l); (0l, 0l); (12345l, 678l); (-1l, Int32.min_int); (7l, 3l) ]

(* One machine alternates engine runs with interpreter runs (a trace
   hook forces the interpreter) and is reset every few calls; an
   interpreter-only machine makes the same calls. After every call their
   hppa_sim_ lines and histograms agree, so the engine's settle handles
   survive [reset] and mix with the interpreter's string-keyed records. *)
let test_settle_parity_across_paths () =
  let prog = Hppa.Millicode.resolved () in
  let machine engine =
    let reg = Obs.Registry.create () in
    let config = { Machine.Config.default with engine; obs = Some reg } in
    (Machine.create ~config prog, reg)
  in
  let mixed, mixed_reg = machine true in
  let oracle, oracle_reg = machine false in
  let step = ref 0 and resets = ref 0 in
  List.iter
    (fun entry ->
      List.iter
        (fun (a, b) ->
          let interp = !step mod 3 = 2 in
          Machine.set_trace mixed
            (if interp then Some (fun _ _ -> ()) else None);
          ignore (Machine.call mixed entry ~args:[ a; b ]);
          ignore (Machine.call oracle entry ~args:[ a; b ]);
          let ctx = Printf.sprintf "%s step %d" entry !step in
          Alcotest.(check bool) (ctx ^ ": path") (not interp)
            (Machine.used_engine mixed);
          Alcotest.(check (list string))
            (ctx ^ ": hppa_sim_ lines") (sim_lines oracle_reg)
            (sim_lines mixed_reg);
          Alcotest.(check (list (pair string int)))
            (ctx ^ ": by_mnemonic")
            (Stats.by_mnemonic (Machine.stats oracle))
            (Stats.by_mnemonic (Machine.stats mixed));
          if !resets = 0 then
            Alcotest.(check (list string))
              (ctx ^ ": no zero series") []
              (zero_insn_lines (sim_lines mixed_reg));
          incr step;
          if !step mod 7 = 0 then begin
            Machine.reset mixed;
            Machine.reset oracle;
            incr resets
          end)
        operand_sets)
    Hppa.Millicode.entries;
  Alcotest.(check bool) "reset at least twice" true (!resets >= 2)

(* A batch publishes the hppa_sim_ lines of a scalar machine that runs
   the same operand sets one by one, divide-by-zero traps included. *)
let test_batch_scalar_exposition () =
  let prog = Hppa.Millicode.resolved () in
  let batch_reg = Obs.Registry.create () in
  let b =
    Machine.Batch.create ~obs:batch_reg
      ~lanes:(List.length operand_sets) prog
  in
  let scalar_reg = Obs.Registry.create () in
  let m =
    Machine.create
      ~config:{ Machine.Config.default with obs = Some scalar_reg }
      prog
  in
  List.iter
    (fun entry ->
      let args =
        Array.of_list (List.map (fun (a, b) -> [ a; b ]) operand_sets)
      in
      Machine.Batch.call b entry ~args;
      Array.iter (fun a -> ignore (Machine.call m entry ~args:a)) args)
    Hppa.Millicode.entries;
  let batch_lines = sim_lines batch_reg in
  Alcotest.(check (list string))
    "hppa_sim_ lines" (sim_lines scalar_reg) batch_lines;
  let insns = String.starts_with ~prefix:"hppa_sim_insns_total" in
  Alcotest.(check bool) "insns series present" true
    (List.exists insns batch_lines);
  Alcotest.(check (list string))
    "no zero series" [] (zero_insn_lines batch_lines)

let test_machine_profile_counters () =
  let reg = Obs.Registry.create () in
  let config = { Machine.Config.default with obs = Some reg } in
  let m = Hppa.Millicode.machine ~config () in
  ignore (Machine.call m "mulI" ~args:[ 3l; 4l ]);
  ignore (Machine.call m "mulI" ~args:[ 5l; 6l ]);
  let p = Machine.profile m in
  Alcotest.(check int) "two engine runs" 2 p.Machine.engine_runs;
  Alcotest.(check int) "one translation" 1 p.Machine.translations;
  Alcotest.(check int) "one reuse" 1 p.Machine.translate_reuses;
  Alcotest.(check bool) "cycles attributed" true
    (p.Machine.block_cycles + p.Machine.step_cycles > 0);
  (* The same numbers are visible through the registry. *)
  let samples =
    Result.get_ok
      (Obs.Export.parse_prometheus
         (Obs.Export.prometheus (Obs.Registry.snapshot reg)))
  in
  Alcotest.(check (option (float 0.0)))
    "runs via registry" (Some 2.0)
    (Obs.Export.find samples "hppa_machine_runs_total")

let test_trap_counts () =
  let reg = Obs.Registry.create () in
  let config = { Machine.Config.default with obs = Some reg } in
  let m = Hppa.Millicode.machine ~config () in
  (* divide by zero traps on both paths; counted exactly once. *)
  ignore (Machine.call m "divU" ~args:[ 7l; 0l ]);
  let stats = Machine.stats m in
  Alcotest.(check (list (pair string int)))
    "trap tally"
    [ ("divide_by_zero", 1) ]
    (Hppa_machine.Stats.by_trap stats)

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "obs:instruments",
      [
        Alcotest.test_case "counter basics" `Quick test_counter_basics;
        Alcotest.test_case "histogram percentiles" `Quick
          test_histogram_percentiles;
        Alcotest.test_case "histogram overflow" `Quick test_histogram_overflow;
        Alcotest.test_case "histogram overflow export" `Quick
          test_histogram_overflow_export;
      ] );
    ( "obs:registry",
      [
        Alcotest.test_case "interning" `Quick test_registry_interning;
        Alcotest.test_case "kind mismatch" `Quick test_registry_kind_mismatch;
        Alcotest.test_case "exact under domains+threads" `Quick
          test_registry_concurrent_exact;
        Alcotest.test_case "snapshot order" `Quick test_snapshot_order_stable;
      ] );
    ( "obs:export",
      [
        Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
        Alcotest.test_case "json golden" `Quick test_json_golden;
        Alcotest.test_case "parse round trip" `Quick test_parse_round_trip;
        Alcotest.test_case "parse rejects garbage" `Quick
          test_parse_rejects_garbage;
      ] );
    ( "obs:json",
      [
        Alcotest.test_case "non-finite floats" `Quick test_json_non_finite;
        Alcotest.test_case "parse lexemes" `Quick test_json_parse_lexemes;
      ] );
    Util.qsuite "obs:json props" [ prop_json_round_trip ];
    ( "obs:trace",
      [
        Alcotest.test_case "ring overflow" `Quick test_trace_overflow;
        Alcotest.test_case "jsonl shape" `Quick test_trace_jsonl;
        Alcotest.test_case "bad capacity" `Quick test_trace_bad_capacity;
      ] );
    ( "obs:machine",
      [
        Alcotest.test_case "engine/interpreter parity" `Quick
          test_engine_interpreter_parity;
        Alcotest.test_case "profile counters" `Quick
          test_machine_profile_counters;
        Alcotest.test_case "trap counts" `Quick test_trap_counts;
        Alcotest.test_case "settle parity across paths and resets" `Quick
          test_settle_parity_across_paths;
        Alcotest.test_case "batch exposition equals scalar" `Quick
          test_batch_scalar_exposition;
      ] );
  ]
