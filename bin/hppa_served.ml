(* hppa-serve: the millicode plan service and its load generator.

   Examples:
     hppa-serve serve --socket /tmp/hppa.sock --shards 4
     hppa-serve serve --port 7117 --trace-json serve-trace.jsonl
     hppa-serve load --socket /tmp/hppa.sock --requests 50000 --conns 4 \
       --dist zipf --min-hit-rate 0.9 --out BENCH_SERVE.json
     hppa-serve load --socket /tmp/hppa.sock --requests 1000000 --conns 8 \
       --dist zipf --rate 50000
     hppa-serve metrics --socket /tmp/hppa.sock --min-hit-rate 0.9 \
       --max-p99-us 200000

   Protocol (one line in, one line out; pipelining allowed): MUL <n>,
   DIV <d>, W64MUL/W64DIV/W64REM, their batch forms, EVAL <entry>
   <args...>, STATS, METRICS, PING, QUIT — see README "Serving". *)

module Server = Hppa_server.Server
module Load_gen = Hppa_server.Load_gen
module Obs = Hppa_obs.Obs

let endpoint socket port host =
  match port with
  | Some p -> Server.Config.Tcp (host, p)
  | None -> Server.Config.Unix_socket socket

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

let serve socket port host shards cache fuel pipeline_depth trace_json plans
    certified =
  let shards =
    match shards with
    | Some s -> s
    | None -> max 2 (Hppa_machine.Sweep.default_domains ())
  in
  let cfg =
    {
      Server.Config.default with
      Server.Config.endpoint = endpoint socket port host;
      shards;
      cache_capacity = cache;
      fuel;
      pipeline_depth;
      trace_path = trace_json;
      plans_path = plans;
      certified;
    }
  in
  let srv =
    match Server.create cfg with
    | srv -> srv
    | exception Invalid_argument msg ->
        Printf.eprintf "hppa-serve: %s\n%!" msg;
        exit 2
  in
  let where =
    match cfg.Server.Config.endpoint with
    | Server.Config.Unix_socket p -> Printf.sprintf "unix:%s" p
    | Server.Config.Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p
  in
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> Server.stop srv)))
    [ Sys.sigint; Sys.sigterm ];
  Printf.eprintf
    "hppa-serve: listening on %s (%d shards, cache %d, fuel %d, pipeline \
     depth %d%s)\n\
     %!"
    where shards cache fuel pipeline_depth
    (if certified then ", certified-only" else "");
  (match Server.run srv with
  | () -> ()
  | exception Unix.Unix_error (e, _, arg) ->
      Printf.eprintf "hppa-serve: cannot listen on %s: %s %s\n%!" where
        (Unix.error_message e) arg;
      exit 2);
  Format.eprintf "%a@." Server.pp_dump srv;
  0

(* ------------------------------------------------------------------ *)
(* load                                                                *)

let load socket port host requests conns dist seed out min_hit_rate
    allow_errors batch_width rate =
  match Load_gen.dist_of_string dist with
  | Error msg ->
      Printf.eprintf "hppa-serve load: %s\n" msg;
      2
  | Ok dist -> (
      let endpoint = endpoint socket port host in
      let rate =
        match rate with Some r when r > 0.0 -> Some r | _ -> None
      in
      match
        Load_gen.run ~batch_width ?rate ~endpoint ~requests ~conns ~dist
          ~seed:(Int64.of_int seed) ()
      with
      | Error msg ->
          Printf.eprintf "hppa-serve load: %s\n" msg;
          2
      | Ok summary ->
          Format.printf "%a@." Load_gen.pp_summary summary;
          Load_gen.write_json ~path:out summary;
          Printf.printf "wrote %s\n" out;
          let hit_rate_failed =
            match min_hit_rate with
            | None -> false
            | Some floor -> (
                match Load_gen.hit_rate summary with
                | Some r when r >= floor -> false
                | Some r ->
                    Printf.eprintf
                      "hppa-serve load: cache hit rate %.4f below required \
                       %.4f\n"
                      r floor;
                    true
                | None ->
                    Printf.eprintf
                      "hppa-serve load: server reported no cache_hit_rate\n";
                    true)
          in
          let errors_failed =
            (not allow_errors) && summary.Load_gen.errors > 0
          in
          if errors_failed then
            Printf.eprintf
              "hppa-serve load: %d protocol error(s) (pass --allow-errors \
               to tolerate)\n"
              summary.Load_gen.errors;
          let batch_failed = summary.Load_gen.batch_mismatches > 0 in
          if batch_failed then
            Printf.eprintf
              "hppa-serve load: %d batch lane(s) not byte-identical to the \
               scalar reply\n"
              summary.Load_gen.batch_mismatches;
          if hit_rate_failed || errors_failed || batch_failed then 1 else 0)

(* ------------------------------------------------------------------ *)
(* metrics                                                             *)

(* p99 of the served-request latency histogram, recomputed from the
   scraped cumulative [hppa_serve_latency_us_bucket{le=...}] series with
   the same semantics as [Obs.Histogram.percentile]: rank =
   ceil(q/100 * count) clamped to [1, count], report the upper bound of
   the first bucket whose cumulative count reaches the rank. *)
let scrape_p99 samples =
  let buckets =
    List.filter_map
      (fun (name, labels, v) ->
        if String.equal name "hppa_serve_latency_us_bucket" then
          match List.assoc_opt "le" labels with
          | Some "+Inf" -> Some (infinity, v)
          | Some le -> (
              match float_of_string_opt le with
              | Some bound -> Some (bound, v)
              | None -> None)
          | None -> None
        else None)
      samples
  in
  match buckets with
  | [] -> None
  | buckets ->
      let buckets =
        List.sort (fun (a, _) (b, _) -> Float.compare a b) buckets
      in
      let total =
        List.fold_left (fun acc (_, c) -> Float.max acc c) 0.0 buckets
      in
      if total <= 0.0 then Some 0.0
      else begin
        let rank =
          Float.max 1.0 (Float.min total (Float.ceil (0.99 *. total)))
        in
        let hit =
          List.find_opt (fun (_, cumulative) -> cumulative >= rank) buckets
        in
        match hit with
        | Some (bound, _) -> Some bound
        | None -> Some infinity
      end

(* Scrape a running daemon: send METRICS, read until the "# EOF"
   terminator, check the text parses, optionally gate on the cache hit
   rate and the p99 latency — the shell side of CI stays a one-liner. *)
let metrics socket port host min_hit_rate max_p99_us out =
  let addr =
    match endpoint socket port host with
    | Server.Config.Unix_socket p -> Unix.ADDR_UNIX p
    | Server.Config.Tcp (h, p) ->
        let a =
          try (Unix.gethostbyname h).Unix.h_addr_list.(0)
          with Not_found -> Unix.inet_addr_loopback
        in
        Unix.ADDR_INET (a, p)
  in
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  match Unix.connect fd addr with
  | exception Unix.Unix_error (e, _, arg) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Printf.eprintf "hppa-serve metrics: cannot connect: %s %s\n"
        (Unix.error_message e) arg;
      2
  | () -> (
      let finish code =
        (try Unix.close fd with Unix.Unix_error _ -> ());
        code
      in
      let oc = Unix.out_channel_of_descr fd in
      let ic = Unix.in_channel_of_descr fd in
      output_string oc "METRICS\n";
      flush oc;
      let buf = Buffer.create 4096 in
      let rec read_scrape () =
        match input_line ic with
        | "# EOF" ->
            Buffer.add_string buf "# EOF\n";
            true
        | line ->
            Buffer.add_string buf line;
            Buffer.add_char buf '\n';
            read_scrape ()
        | exception End_of_file -> false
      in
      let complete = read_scrape () in
      let text = Buffer.contents buf in
      if not complete then begin
        Printf.eprintf
          "hppa-serve metrics: connection closed before \"# EOF\"\n";
        finish 2
      end
      else begin
        (match out with
        | None -> print_string text
        | Some path ->
            let file = open_out path in
            output_string file text;
            close_out file;
            Printf.printf "wrote %s\n" path);
        match Obs.Export.parse_prometheus text with
        | Error msg ->
            Printf.eprintf "hppa-serve metrics: scrape does not parse: %s\n"
              msg;
            finish 1
        | Ok samples ->
            Printf.printf "scrape ok: %d samples\n" (List.length samples);
            let hit_rate_failed =
              match min_hit_rate with
              | None -> false
              | Some floor -> (
                  match
                    Obs.Export.find samples "hppa_serve_cache_hit_rate"
                  with
                  | Some r when r >= floor ->
                      Printf.printf "cache_hit_rate %.4f >= %.4f\n" r floor;
                      false
                  | Some r ->
                      Printf.eprintf
                        "hppa-serve metrics: cache hit rate %.4f below \
                         required %.4f\n"
                        r floor;
                      true
                  | None ->
                      Printf.eprintf
                        "hppa-serve metrics: no hppa_serve_cache_hit_rate \
                         in scrape\n";
                      true)
            in
            let p99_failed =
              match max_p99_us with
              | None -> false
              | Some ceiling -> (
                  match scrape_p99 samples with
                  | Some p99 when p99 <= ceiling ->
                      Printf.printf "latency p99 %.0fus <= %.0fus\n" p99
                        ceiling;
                      false
                  | Some p99 ->
                      Printf.eprintf
                        "hppa-serve metrics: latency p99 %.0fus above \
                         allowed %.0fus\n"
                        p99 ceiling;
                      true
                  | None ->
                      Printf.eprintf
                        "hppa-serve metrics: no hppa_serve_latency_us \
                         histogram in scrape\n";
                      true)
            in
            if hit_rate_failed || p99_failed then finish 1 else finish 0
      end)

(* ------------------------------------------------------------------ *)

open Cmdliner

let socket =
  Arg.(
    value
    & opt string "hppa-serve.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket path.")

let port =
  Arg.(
    value
    & opt (some int) None
    & info [ "p"; "port" ] ~docv:"PORT"
        ~doc:"Listen on (or connect to) TCP $(docv) instead of the Unix socket.")

let host =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"TCP host (with $(b,--port)).")

let serve_cmd =
  let shards =
    Arg.(
      value
      & opt (some int) None
      & info
          [ "shards"; "w" ]
          ~docv:"N"
          ~doc:
            "Cache/compute shards, each owning one worker domain and a \
             slice of the plan cache (default: the machine's recommended \
             domain count, at least 2).")
  in
  let cache =
    Arg.(
      value & opt int 4096
      & info [ "cache" ] ~docv:"N"
          ~doc:"Plan-cache capacity in entries, split across shards.")
  in
  let fuel =
    Arg.(
      value & opt int 1_000_000
      & info [ "fuel" ] ~docv:"CYCLES"
          ~doc:"Per-EVAL simulated-cycle budget.")
  in
  let pipeline_depth =
    Arg.(
      value
      & opt int Server.Config.default.Server.Config.pipeline_depth
      & info [ "pipeline-depth" ] ~docv:"N"
          ~doc:
            "Maximum requests in flight per connection; further input \
             stays in the socket buffer (back-pressure).")
  in
  let trace_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-json" ] ~docv:"PATH"
          ~doc:
            "Keep a bounded per-request event trace and write it as JSON \
             Lines to $(docv) at shutdown.")
  in
  let plans =
    Arg.(
      value
      & opt (some string) None
      & info [ "plans" ] ~docv:"PATH"
          ~doc:
            "Warm-start from a $(docv) BENCH_PLANS.json store (written by \
             $(b,bench plans)): every measured MUL/DIV request is \
             pre-computed into the plan cache before the socket opens.")
  in
  let certified =
    Arg.(
      value & flag
      & info [ "certified" ]
          ~doc:
            "Certified-only serving: every MUL/DIV plan must carry a \
             machine-checked certificate (linear-form proof for multiply \
             chains, reciprocal coverage bound for constant divides, \
             divide-step schema for the millicode fallback). Strategies \
             the certifier cannot prove are passed over; reply bytes are \
             unchanged.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the plan daemon until SIGINT/SIGTERM, then drain in-flight \
          requests, dump statistics and exit.")
    Term.(
      const serve $ socket $ port $ host $ shards $ cache $ fuel
      $ pipeline_depth $ trace_json $ plans $ certified)

let load_cmd =
  let requests =
    Arg.(
      value & opt int 10_000
      & info [ "n"; "requests" ] ~docv:"N" ~doc:"Total requests to send.")
  in
  let conns =
    Arg.(
      value & opt int 4
      & info [ "c"; "conns" ] ~docv:"K" ~doc:"Concurrent connections.")
  in
  let dist =
    Arg.(
      value & opt string "figure5"
      & info [ "dist" ] ~docv:"DIST"
          ~doc:
            "Request distribution: $(b,figure5) (EVAL with the paper's \
             operand model), $(b,zipf) (Zipf-skewed MUL/DIV constants), \
             $(b,smalldiv), $(b,mixed), or $(b,w64mix) (Zipf MUL/DIV \
             with double-word W64MUL/W64DIV/W64REM traffic mixed in).")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed for the request stream.")
  in
  let out =
    Arg.(
      value
      & opt string "BENCH_SERVE.json"
      & info [ "out" ] ~docv:"PATH" ~doc:"Where to write the JSON summary.")
  in
  let min_hit_rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-hit-rate" ] ~docv:"R"
          ~doc:
            "Fail (exit 1) unless the server-reported cache hit rate is at \
             least $(docv).")
  in
  let allow_errors =
    Arg.(
      value & flag
      & info [ "allow-errors" ]
          ~doc:"Do not fail when some requests draw ERR replies.")
  in
  let batch_width =
    Arg.(
      value & opt int 1
      & info [ "batch-width" ] ~docv:"W"
          ~doc:
            "Coalesce each window of $(docv) requests into MULB/DIVB \
             batch lines (1 = all-scalar). The first batch per \
             connection is cross-checked byte-for-byte against scalar \
             replies; any mismatch fails the run.")
  in
  let rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "rate" ] ~docv:"RPS"
          ~doc:
            "Open-loop mode: offer $(docv) requests per second in total \
             (split across connections) on a seeded Poisson arrival \
             schedule, pipelining into the server when replies lag, and \
             measure latency from each request's scheduled arrival \
             (coordinated-omission-free). 0 or absent = closed loop.")
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Drive a running daemon with a seeded workload and write \
          BENCH_SERVE.json. Exits non-zero on any protocol error (unless \
          $(b,--allow-errors)), an unmet $(b,--min-hit-rate), or any \
          batch/scalar reply mismatch under $(b,--batch-width).")
    Term.(
      const load $ socket $ port $ host $ requests $ conns $ dist $ seed
      $ out $ min_hit_rate $ allow_errors $ batch_width $ rate)

let metrics_cmd =
  let min_hit_rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-hit-rate" ] ~docv:"R"
          ~doc:
            "Fail (exit 1) unless the scraped \
             $(b,hppa_serve_cache_hit_rate) gauge is at least $(docv).")
  in
  let max_p99_us =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-p99-us" ] ~docv:"US"
          ~doc:
            "Fail (exit 1) unless the p99 of the scraped \
             $(b,hppa_serve_latency_us) histogram (recomputed from the \
             cumulative buckets) is at most $(docv) microseconds.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"PATH"
          ~doc:"Write the scrape text to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Scrape a running daemon's METRICS endpoint, verify the \
          Prometheus text parses, and optionally gate on the cache hit \
          rate and p99 latency.")
    Term.(const metrics $ socket $ port $ host $ min_hit_rate $ max_p99_us $ out)

let cmd =
  Cmd.group
    (Cmd.info "hppa-serve"
       ~doc:
         "Concurrent millicode plan service: addition-chain multiply plans, \
          constant-divide plans and simulator evaluations over a \
          pipelined line-oriented socket protocol")
    [ serve_cmd; load_cmd; metrics_cmd ]

let () = exit (Cmd.eval' cmd)
