(* Load generator: one thread per connection, seeded request streams,
   client-side latency histogram, server STATS scrape at the end. *)

module Prng = Hppa_dist.Prng
module Operand_dist = Hppa_dist.Operand_dist

type dist = Figure5 | Zipf | Smalldiv | Mixed | W64mix

let dist_of_string = function
  | "figure5" -> Ok Figure5
  | "zipf" -> Ok Zipf
  | "smalldiv" -> Ok Smalldiv
  | "mixed" -> Ok Mixed
  | "w64mix" -> Ok W64mix
  | s ->
      Error
        (Printf.sprintf
           "unknown distribution %S (want figure5|zipf|smalldiv|mixed|w64mix)"
           s)

let dist_to_string = function
  | Figure5 -> "figure5"
  | Zipf -> "zipf"
  | Smalldiv -> "smalldiv"
  | Mixed -> "mixed"
  | W64mix -> "w64mix"

type summary = {
  dist : dist;
  requests : int;
  conns : int;
  seed : int64;
  ok : int;
  errors : int;
  wall_s : float;
  throughput_rps : float;
  offered_rps : float option;
  p50_us : float;
  p99_us : float;
  batch_width : int;
  batch_mismatches : int;
  server_stats : (string * string) list;
}

(* ------------------------------------------------------------------ *)
(* Request streams                                                     *)

(* Zipf(s = 1.1) over ranks 1..support, rank r mapping to the constant
   r + 1. MUL and DIV keys are distinct, so the stream touches at most
   2 x support cache keys; with the default cache capacity above that,
   steady-state misses are bounded by 2 x support and the > 90% CI
   hit-rate floor follows for any request count over ~20 x support. *)
let zipf_support = 1000
let zipf_s = 1.1

let zipf_cdf =
  lazy
    (let w = Array.init zipf_support (fun i ->
         1.0 /. Float.pow (float_of_int (i + 1)) zipf_s)
     in
     let total = Array.fold_left ( +. ) 0.0 w in
     let acc = ref 0.0 in
     Array.map
       (fun x ->
         acc := !acc +. (x /. total);
         !acc)
       w)

let zipf_rank g =
  let cdf = Lazy.force zipf_cdf in
  let u = Prng.float01 g in
  let lo = ref 0 and hi = ref (zipf_support - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo + 1

let zipf_constant g = Int32.of_int (zipf_rank g + 1)

let figure5_request g =
  let x, y = Operand_dist.figure5_pair g in
  Printf.sprintf "EVAL mulI %ld %ld" x y

let zipf_request g =
  let c = zipf_constant g in
  if Prng.bool g ~p:0.7 then Printf.sprintf "MUL %ld" c
  else Printf.sprintf "DIV %ld" c

let smalldiv_request g =
  Printf.sprintf "DIV %ld" (Operand_dist.small_divisor g)

(* W64 requests key the cache by their operands, so cache-friendliness
   requires the operands themselves to repeat: draw a zipf rank, then
   derive verb, signedness and both operands deterministically from it.
   Each rank maps to exactly one request line, so the W64 half of the
   stream touches at most [zipf_support] cache keys. The operands are
   never a trapping pair ([w64_pair] divisors are non-zero and the
   dividend is non-negative), so every lane replies OK. *)
let w64_request g =
  let rank = zipf_rank g in
  let verb =
    (List.nth Hppa_w64.[ mul; div; rem ] (rank mod 3)).Hppa_w64.verb
  in
  let sign = if rank land 1 = 0 then "u" else "s" in
  let og = Prng.create (Int64.of_int (1_000_000 + rank)) in
  let x, y = Operand_dist.w64_pair og in
  Printf.sprintf "%s %s %Ld %Ld" verb sign x y

let request_of g = function
  | Figure5 -> figure5_request g
  | Zipf -> zipf_request g
  | Smalldiv -> smalldiv_request g
  | Mixed ->
      let u = Prng.float01 g in
      if u < 0.4 then zipf_request g
      else if u < 0.7 then figure5_request g
      else smalldiv_request g
  | W64mix ->
      if Prng.bool g ~p:0.5 then zipf_request g else w64_request g

(* ------------------------------------------------------------------ *)
(* Client connection                                                   *)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

type conn = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let connect (ep : Server.Config.endpoint) =
  match ep with
  | Server.Config.Unix_socket path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      { fd; buf = Buffer.create 4096; chunk = Bytes.create 4096 }
  | Server.Config.Tcp (host, port) ->
      let addr =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> Unix.inet_addr_loopback
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (addr, port));
      { fd; buf = Buffer.create 4096; chunk = Bytes.create 4096 }

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

let read_line conn =
  let rec take () =
    let s = Buffer.contents conn.buf in
    match String.index_opt s '\n' with
    | Some i ->
        let line = String.sub s 0 i in
        Buffer.clear conn.buf;
        Buffer.add_string conn.buf
          (String.sub s (i + 1) (String.length s - i - 1));
        Some line
    | None -> (
        match Unix.read conn.fd conn.chunk 0 (Bytes.length conn.chunk) with
        | 0 -> None
        | n ->
            Buffer.add_subbytes conn.buf conn.chunk 0 n;
            take ())
  in
  take ()

let round_trip conn line =
  write_all conn.fd (line ^ "\n");
  read_line conn

(* "MUL 625" -> ("MUL", "625"); a verb with no operand keeps "". *)
let split_verb r =
  match String.index_opt r ' ' with
  | Some i -> (String.sub r 0 i, String.sub r (i + 1) (String.length r - i - 1))
  | None -> (r, "")

(* Lane count of a batch reply header ("OK MULB k=3" -> 3); [None] for
   anything that is not a batch header, including a whole-batch ERR. *)
let batch_lane_count header =
  if not (Server.is_batch_reply header) then None
  else
    match String.index_opt header '=' with
    | None -> None
    | Some i ->
        int_of_string_opt
          (String.sub header (i + 1) (String.length header - i - 1))

(* ------------------------------------------------------------------ *)

let scrape_stats endpoint =
  match connect endpoint with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Unix.error_message e)
  | conn ->
      let r =
        match round_trip conn "STATS" with
        | Some reply when Protocol.is_ok reply ->
            (* "OK STATS k=v k=v ..." *)
            let kvs =
              String.split_on_char ' ' reply
              |> List.filter_map (fun tok ->
                     match String.index_opt tok '=' with
                     | Some i ->
                         Some
                           ( String.sub tok 0 i,
                             String.sub tok (i + 1)
                               (String.length tok - i - 1) )
                     | None -> None)
            in
            Ok kvs
        | Some reply -> Error ("STATS failed: " ^ reply)
        | None -> Error "STATS failed: connection closed"
      in
      ignore (try round_trip conn "QUIT" with _ -> None);
      close conn;
      r

let run ?(batch_width = 1) ?rate ~endpoint ~requests ~conns ~dist ~seed () =
  if requests < 1 then Error "requests must be >= 1"
  else if conns < 1 then Error "conns must be >= 1"
  else if batch_width < 1 || batch_width > Protocol.max_batch_operands then
    Error
      (Printf.sprintf "batch width must be in 1..%d"
         Protocol.max_batch_operands)
  else if (match rate with Some r -> r <= 0.0 | None -> false) then
    Error "rate must be > 0"
  else if rate <> None && batch_width > 1 then
    Error "open-loop mode (rate) is scalar-only; drop the batch width"
  else begin
    let conns = min conns requests in
    (* Fail fast (and cleanly) if the server is not there. *)
    match connect endpoint with
    | exception Unix.Unix_error (e, _, _) ->
        Error
          (Printf.sprintf "cannot connect: %s" (Unix.error_message e))
    | probe ->
        close probe;
        let lat = Metrics.create () in
        let failures = Atomic.make 0 in
        let mismatches = Atomic.make 0 in
        let worker idx n () =
          let g =
            Prng.create
              (Int64.add seed (Int64.mul 0x9E3779B97F4A7C15L
                                 (Int64.of_int (idx + 1))))
          in
          match connect endpoint with
          | exception Unix.Unix_error _ ->
              Atomic.fetch_and_add failures n |> ignore
          | conn ->
              let scalar req =
                let t0 = Unix.gettimeofday () in
                match round_trip conn req with
                | Some reply ->
                    Metrics.record lat
                      ~error:(not (Protocol.is_ok reply))
                      ~us:((Unix.gettimeofday () -. t0) *. 1e6)
                | None -> Atomic.incr failures
              in
              let checked = ref false in
              (* One MULB/DIVB line carrying [ops]; each lane records a
                 latency sample (the batch round trip) so the summary
                 still counts logical requests. *)
              let batch verb ops =
                let t0 = Unix.gettimeofday () in
                write_all conn.fd (String.concat " " (verb :: ops) ^ "\n");
                match read_line conn with
                | None ->
                    Atomic.fetch_and_add failures (List.length ops) |> ignore
                | Some header -> (
                    match batch_lane_count header with
                    | None ->
                        (* Single-line reply: the batch was rejected
                           as a whole. *)
                        let us = (Unix.gettimeofday () -. t0) *. 1e6 in
                        List.iter
                          (fun _ -> Metrics.record lat ~error:true ~us)
                          ops
                    | Some count ->
                        let lanes =
                          List.init count (fun _ -> read_line conn)
                        in
                        let us = (Unix.gettimeofday () -. t0) *. 1e6 in
                        List.iter
                          (function
                            | Some l ->
                                Metrics.record lat
                                  ~error:(not (Protocol.is_ok l)) ~us
                            | None -> Atomic.incr failures)
                          lanes;
                        if not !checked then begin
                          (* First batch on this connection: every lane
                             must be byte-identical to the scalar reply
                             for the same operand. *)
                          checked := true;
                          let scalar_verb = String.sub verb 0 3 in
                          List.iteri
                            (fun i op ->
                              let want = List.nth_opt lanes i in
                              match
                                round_trip conn (scalar_verb ^ " " ^ op)
                              with
                              | Some r when want = Some (Some r) -> ()
                              | _ -> Atomic.incr mismatches)
                            ops
                        end)
              in
              (try
                 if batch_width = 1 then
                   for _ = 1 to n do scalar (request_of g dist) done
                 else begin
                   (* Draw a window of the stream, coalesce the scalar
                      MUL/DIV constants into one batch per verb, and
                      send anything else (EVAL lines) as-is. *)
                   let remaining = ref n in
                   while !remaining > 0 do
                     let k = min batch_width !remaining in
                     let reqs = List.init k (fun _ -> request_of g dist) in
                     let muls, divs, others =
                       List.fold_left
                         (fun (m, d, o) r ->
                           match split_verb r with
                           | "MUL", c -> (c :: m, d, o)
                           | "DIV", c -> (m, c :: d, o)
                           | _ -> (m, d, r :: o))
                         ([], [], []) reqs
                     in
                     if muls <> [] then batch "MULB" (List.rev muls);
                     if divs <> [] then batch "DIVB" (List.rev divs);
                     List.iter scalar (List.rev others);
                     remaining := !remaining - k
                   done
                 end
               with Unix.Unix_error _ | Sys_error _ ->
                 Atomic.incr failures);
              close conn
        in
        (* Open-loop worker: requests arrive on a seeded exponential
           schedule (Poisson process at [per_rate] per connection) laid
           out before the clock starts, and latency is measured from the
           {e scheduled} arrival time — so a slow server shows up as
           queueing delay in p99 instead of silently throttling the
           offered rate (the closed-loop coordinated-omission bias this
           mode exists to fix). A writer thread sends on schedule while
           the reader drains the pipelined replies in order; reply [i]
           always answers request [i], so no reply/request matching is
           needed. *)
        let open_worker idx n per_rate () =
          let g =
            Prng.create
              (Int64.add seed (Int64.mul 0x9E3779B97F4A7C15L
                                 (Int64.of_int (idx + 1))))
          in
          match connect endpoint with
          | exception Unix.Unix_error _ ->
              Atomic.fetch_and_add failures n |> ignore
          | conn ->
              let lines = Array.init n (fun _ -> request_of g dist) in
              let scheduled = Array.make n 0.0 in
              let acc = ref 0.0 in
              for i = 0 to n - 1 do
                acc :=
                  !acc +. (-.log (1.0 -. Prng.float01 g) /. per_rate);
                scheduled.(i) <- !acc
              done;
              let start = Unix.gettimeofday () in
              let sent = Atomic.make 0 in
              let writer () =
                try
                  for i = 0 to n - 1 do
                    let due = start +. scheduled.(i) in
                    let now = Unix.gettimeofday () in
                    if due > now then Thread.delay (due -. now);
                    write_all conn.fd (lines.(i) ^ "\n");
                    Atomic.incr sent
                  done
                with Unix.Unix_error _ | Sys_error _ -> ()
              in
              let wt = Thread.create writer () in
              (* Blocking reads are safe: reply [i] arrives once request
                 [i] is sent. The receive timeout only fires if the
                 writer died (or the server stalled), turning the
                 remaining requests into counted failures instead of a
                 hang. *)
              (try Unix.setsockopt_float conn.fd Unix.SO_RCVTIMEO 10.0
               with Unix.Unix_error _ -> ());
              let answered = ref 0 in
              (try
                 for i = 0 to n - 1 do
                   match read_line conn with
                   | Some reply ->
                       Metrics.record lat
                         ~error:(not (Protocol.is_ok reply))
                         ~us:
                           ((Unix.gettimeofday () -. start -. scheduled.(i))
                           *. 1e6);
                       incr answered
                   | None -> raise Exit
                 done
               with Exit | Unix.Unix_error _ | Sys_error _ -> ());
              Thread.join wt;
              Atomic.fetch_and_add failures (n - !answered) |> ignore;
              close conn
        in
        let t0 = Unix.gettimeofday () in
        let threads =
          List.init conns (fun i ->
              let n =
                (requests / conns)
                + if i < requests mod conns then 1 else 0
              in
              match rate with
              | None -> Thread.create (worker i n) ()
              | Some r ->
                  Thread.create (open_worker i n (r /. float_of_int conns)) ())
        in
        List.iter Thread.join threads;
        let wall_s = Unix.gettimeofday () -. t0 in
        let server_stats =
          match scrape_stats endpoint with Ok kvs -> kvs | Error _ -> []
        in
        let sent = Metrics.requests lat + Atomic.get failures in
        let errors = Metrics.errors lat + Atomic.get failures in
        Ok
          {
            dist;
            requests = sent;
            conns;
            seed;
            ok = Metrics.requests lat - Metrics.errors lat;
            errors;
            wall_s;
            throughput_rps =
              (if wall_s > 0.0 then float_of_int sent /. wall_s else 0.0);
            offered_rps = rate;
            p50_us = Metrics.percentile_us lat 0.5;
            p99_us = Metrics.percentile_us lat 0.99;
            batch_width;
            batch_mismatches = Atomic.get mismatches;
            server_stats;
          }
  end

let hit_rate s =
  List.assoc_opt "cache_hit_rate" s.server_stats
  |> Fun.flip Option.bind float_of_string_opt

(* ------------------------------------------------------------------ *)

let write_json ~path s =
  let open Hppa_obs.Obs.Json in
  (* A STATS value is a number when it reads as a finite one, else a
     string ("+Inf" reads as a float but has no JSON literal). *)
  let stat v =
    match (int_of_string_opt v, float_of_string_opt v) with
    | Some n, _ -> Int n
    | None, Some f when Float.is_finite f -> Float f
    | _ -> Str v
  in
  let doc =
    Obj
      [
        ("schema", Str "hppa-bench-serve/2");
        ("dist", Str (dist_to_string s.dist));
        ("requests", Int s.requests);
        ("conns", Int s.conns);
        ( "seed",
          (* an int64 beyond OCaml's 63-bit int stays exact as text *)
          if Int64.(equal (of_int (to_int s.seed)) s.seed) then
            Int (Int64.to_int s.seed)
          else Str (Int64.to_string s.seed) );
        ("ok", Int s.ok);
        ("errors", Int s.errors);
        ("wall_seconds", Float s.wall_s);
        ("throughput_rps", Float s.throughput_rps);
        ( "offered_rps",
          Option.fold ~none:Null ~some:(fun r -> Float r) s.offered_rps );
        ("client_p50_us", Float s.p50_us);
        ("client_p99_us", Float s.p99_us);
        ("batch_width", Int s.batch_width);
        ("batch_mismatches", Int s.batch_mismatches);
        ( "server_stats",
          Obj (List.map (fun (k, v) -> (k, stat v)) s.server_stats) );
      ]
  in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (to_string doc ^ "\n"))

let pp_summary ppf s =
  let us f = if Float.is_finite f then Printf.sprintf "%.0f" f else "+Inf" in
  Format.fprintf ppf
    "@[<v>dist %s: %d requests over %d connection%s in %.2fs (%.0f req/s)%t@,\
     ok %d, errors %d@,client latency p50 <= %s us, p99 <= %s us%a@]"
    (dist_to_string s.dist) s.requests s.conns
    (if s.conns = 1 then "" else "s")
    s.wall_s s.throughput_rps
    (fun ppf ->
      (match s.offered_rps with
      | Some r ->
          Format.fprintf ppf "@,open loop: offered %.0f req/s, achieved %.0f"
            r s.throughput_rps
      | None -> ());
      if s.batch_width > 1 then
        Format.fprintf ppf "@,batch width %d, %d cross-check mismatch%s"
          s.batch_width s.batch_mismatches
          (if s.batch_mismatches = 1 then "" else "es"))
    s.ok s.errors (us s.p50_us) (us s.p99_us)
    (fun ppf -> function
      | [] -> ()
      | kvs ->
          Format.fprintf ppf "@,server: %s"
            (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)))
    s.server_stats
