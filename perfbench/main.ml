(* perfbench: one command for the plan service, the simulator and the
   compiler. See README.md in this directory.

   main.exe --workload serve_hot|serve_miss|sim_kernels|compile
            --seed N --seconds S --trace 0|1
            [--server PATH/TO/hppa_served.exe] [--workdir DIR] [--daemon-cpu N]

   The socket workloads need --server. Sockets and the traced run's
   span file go to --workdir (default "."). *)

open Hppa_perfbench

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("p50_us", "us");
    ("p90_us", "us");
    ("cycles_mean", "cycles");
  ]

let kernels = List.map (fun (k : Gen.kernel) -> k.entry) (Gen.sim_kernels ~seed:0)

let per_layer =
  [
    ("server.protocol.parse_ns", "ns");
    ("server.respond_us", "us");
    ("server.loop_us", "us");
    ("server.lru.find_ns", "ns");
    ("server.lru.add_ns", "ns");
    ("server.cache.hit_ratio", "ratio");
    ("server.cache.evictions", "count");
    ("server.cross_daemon_diffs", "count");
    ("server.pool.wait_us", "us");
    ("server.pool.jobs", "count");
    ("server.plan.mul_us", "us");
    ("server.plan.div_us", "us");
    ("plan.selector.choose_us", "us");
    ("plan.selector.candidates", "count");
  ]
  @ List.concat_map
      (fun s ->
        List.map
          (fun part -> (Printf.sprintf "plan.strategy.%s_us.%s" part s, "us"))
          [ "cost"; "emit"; "digest" ])
      [ "mul_const_chain"; "div_const"; "mul_millicode"; "div_millicode" ]
  @ [
      ("core.mul_const.plan_us", "us");
      ("core.div_const.plan_us", "us");
      ("core.chain.steps_mean", "steps");
    ]
  @ List.map
      (fun k -> ("verify.certify_us." ^ k, "us"))
      [ "linear_mul"; "reciprocal_div"; "divide_step"; "small_dispatch"; "body_equiv" ]
  @ [
      ("verify.check_us", "us");
      ("compiler.strength.reduce_us", "us");
      ("compiler.lower.compile_us", "us");
      ("compiler.lower_loop.compile_us", "us");
      ("isa.link_us", "us");
      ("compiler.millicode_calls", "count");
      ("compiler.inline_multiplies", "count");
      ("compiler.gen_static_insns", "insns");
    ]
  @ List.concat_map
      (fun engine ->
        List.map (fun k -> (Printf.sprintf "machine.%s.ns_per_insn.%s" engine k, "ns")) kernels)
      [ "cpu"; "engine"; "batch" ]
  @ [
      ("machine.engine.translate_us", "us");
      ("machine.engine.block_cycle_share", "ratio");
      ("machine.batch.dispatches", "count");
      ("bench.p99_us", "us");
      ("bench.wall_ops_per_s", "1/s");
      ("bench.wall_p50_us", "us");
      ("bench.wall_p90_us", "us");
      ("bench.open_loop_p50_us", "us");
      ("bench.open_loop_p99_us", "us");
      ("bench.gen_lag_p99_us", "us");
      ("bench.span_overhead_ns", "ns");
    ]
  (* The traced run's own end-to-end figures: against an untraced run of
     the same seed they show what tracing costs. *)
  @ List.map (fun (name, u) -> ("bench.traced." ^ name, u)) end_to_end

let workloads = [ "serve_hot"; "serve_miss"; "sim_kernels"; "compile" ]

(* What one empty span costs: the tracing overhead per recorded span. *)
let span_overhead () =
  Measure.Span.reset ();
  let n = 20_000 in
  let (), dt =
    Measure.time (fun () ->
        for _ = 1 to n do
          Measure.Span.with_span "bench.empty" ignore
        done)
  in
  Measure.Span.reset ();
  dt *. 1e9 /. float_of_int n

let usage () =
  prerr_endline
    "usage: main.exe --workload serve_hot|serve_miss|sim_kernels|compile --seed N \
     --seconds S --trace 0|1 [--server HPPA_SERVED_EXE] [--workdir DIR] [--daemon-cpu N]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let server = ref "" and workdir = ref "." and daemon_cpu = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " seconds to measure");
      ("--trace", Arg.Set_int trace, " 1 = traced run (per-layer metrics)");
      ("--server", Arg.Set_string server, " path of the hppa-serve binary");
      ("--workdir", Arg.Set_string workdir, " directory for sockets and span files");
      ("--daemon-cpu", Arg.Set_int daemon_cpu, " run the daemon on this CPU (with taskset)");
    ]
    (fun _ -> usage ())
    "perfbench";
  if (not (List.mem !workload workloads)) || !trace < 0 || !trace > 1 || !seconds <= 0. then
    usage ();
  let trace = !trace = 1 in
  let o = Report.outcome () in
  let serve f =
    if !server = "" || not (Sys.file_exists !server) then usage ();
    let sock = Filename.concat !workdir (Printf.sprintf "perfbench-%d.sock" (Unix.getpid ())) in
    let daemon_cpu = if !daemon_cpu < 0 then None else Some !daemon_cpu in
    f { Serve_work.exe = !server; sock; seed = !seed; seconds = !seconds; trace; outcome = o; daemon_cpu }
  in
  let overhead = if trace then span_overhead () else 0. in
  let e2e, layers =
    match !workload with
    | "serve_hot" -> serve Serve_work.hot
    | "serve_miss" -> serve Serve_work.miss
    | "sim_kernels" -> Sim_work.run ~seed:!seed ~seconds:!seconds ~trace o
    | _ -> Compile_work.run ~seed:!seed ~seconds:!seconds ~trace o
  in
  let metrics =
    if trace then begin
      Measure.Span.write
        (Filename.concat !workdir (Printf.sprintf "perfbench-spans-%s-%d.jsonl" !workload !seed));
      let layers =
        ("bench.span_overhead_ns", overhead)
        :: List.map
             (fun name -> ("bench." ^ name, List.assoc name e2e))
             [ "p99_us"; "wall_ops_per_s"; "wall_p50_us"; "wall_p90_us" ]
        @ List.map (fun (name, _) -> ("bench.traced." ^ name, List.assoc name e2e)) end_to_end
        @ layers
      in
      List.map
        (fun (name, u) ->
          (* a layer this workload does not run did no work: 0 *)
          Report.m name u (Option.value (List.assoc_opt name layers) ~default:0.))
        per_layer
    end
    else List.map (fun (name, u) -> Report.m name u (List.assoc name e2e)) end_to_end
  in
  exit (if Report.print o metrics then 0 else 1)
