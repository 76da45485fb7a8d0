(* The hppa-serve daemon as a child process, and a single-threaded,
   select-driven client over at most two pipelined Unix-socket
   connections. Replies are matched to requests in order (the server
   replies in request order per connection) and timed exactly per
   request with the monotonic clock. *)

(* ------------------------------------------------------------------ *)
(* Server process                                                       *)

type server = { pid : int; sock : string }

let live : server list ref = ref []

let rec waitpid_retry flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry flags pid

let stop srv =
  if List.memq srv !live then begin
    live := List.filter (fun s -> s != srv) !live;
    (try Unix.kill srv.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Measure.now () +. 10. in
    let rec wait () =
      match waitpid_retry [ Unix.WNOHANG ] srv.pid with
      | 0, _ when Measure.now () < deadline ->
          Unix.sleepf 0.005;
          wait ()
      | 0, _ ->
          (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (waitpid_retry [] srv.pid)
      | _ -> ()
    in
    wait ();
    try Sys.remove srv.sock with Sys_error _ -> ()
  end

let () = at_exit (fun () -> List.iter stop !live)

(* CPU seconds the daemon has run, all threads, from the scheduler's
   nanosecond counters (/proc/<pid>/task/<tid>/schedstat, first field).
   Like [Measure.cpu], it leaves out the host's steal time. The daemon's
   threads live as long as it does, so none of its time is lost with an
   exited thread. *)
let cpu_s srv =
  let dir = Printf.sprintf "/proc/%d/task" srv.pid in
  Array.fold_left
    (fun acc tid ->
      match In_channel.with_open_text (Filename.concat dir (tid ^ "/schedstat")) input_line with
      | line -> acc +. (float_of_string (List.hd (String.split_on_char ' ' line)) *. 1e-9)
      | exception Sys_error _ -> acc (* a thread that just exited *))
    0. (Sys.readdir dir)

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> fd
  | exception e ->
      Unix.close fd;
      raise e

(* Start a fresh daemon on [sock] and wait until it accepts; with
   [cpu], on that CPU only (taskset execs the daemon in its own
   process). *)
let spawn ?cpu ~exe ~sock ~cache () =
  (try Sys.remove sock with Sys_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let argv = [| exe; "serve"; "--socket"; sock; "--shards"; "2"; "--cache"; string_of_int cache |] in
  let argv =
    match cpu with
    | Some c -> Array.append [| "taskset"; "-c"; string_of_int c |] argv
    | None -> argv
  in
  let pid = Unix.create_process argv.(0) argv null null null in
  Unix.close null;
  let srv = { pid; sock } in
  live := srv :: !live;
  let deadline = Measure.now () +. 30. in
  let rec ready () =
    match connect sock with
    | fd -> Unix.close fd
    | exception Unix.Unix_error _ ->
        (match waitpid_retry [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            live := List.filter (fun s -> s != srv) !live;
            failwith "hppa-serve exited during start-up");
        if Measure.now () > deadline then failwith "hppa-serve did not start";
        Unix.sleepf 0.002;
        ready ()
  in
  ready ();
  srv

(* ------------------------------------------------------------------ *)
(* Connections                                                          *)

(* How many lines make up the reply to a request. *)
type shape = Single | Batch | Scrape

let shape_of line =
  match String.index_opt line ' ' with
  | Some i when i > 0 && line.[i - 1] = 'B' -> Batch
  | _ -> if line = "METRICS" then Scrape else Single

type pending = { tag : string; shape : shape; due : float }

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  chunk : Bytes.t;
  out : Buffer.t;
  queue : pending Queue.t;
  mutable lines : string list;  (* lines of the reply being assembled *)
  mutable want : int;  (* lines still expected; -1 = until "# EOF" *)
}

let open_conn sock =
  {
    fd = connect sock;
    inbuf = Buffer.create 65536;
    chunk = Bytes.create 65536;
    out = Buffer.create 4096;
    queue = Queue.create ();
    lines = [];
    want = 0;
  }

let close_conn c = Unix.close c.fd

let rec write_all fd b off len =
  if len > 0 then
    let n = Unix.write fd b off len in
    write_all fd b (off + n) (len - n)

let flush c =
  if Buffer.length c.out > 0 then begin
    let b = Buffer.to_bytes c.out in
    Buffer.clear c.out;
    write_all c.fd b 0 (Bytes.length b)
  end

let enqueue c ~due tag line =
  Buffer.add_string c.out line;
  Buffer.add_char c.out '\n';
  Queue.push { tag; shape = shape_of line; due } c.queue

(* Feed one reply line; returns the finished reply, if any. *)
let feed c line =
  let p = Queue.peek c.queue in
  if c.lines = [] then
    c.want <-
      (match p.shape with
      | Single -> 1
      | Scrape -> -1
      | Batch -> (
          match Scanf.sscanf_opt line "OK %_s k=%d" (fun k -> k) with
          | Some k -> k + 1
          | None -> 1));
  c.lines <- line :: c.lines;
  let finished =
    if c.want < 0 then line = "# EOF"
    else begin
      c.want <- c.want - 1;
      c.want = 0
    end
  in
  if finished then begin
    let r = (Queue.pop c.queue, List.rev c.lines) in
    c.lines <- [];
    Some r
  end
  else None

(* Read what is available on [c] and hand every completed reply, with
   the receive time, to [on_reply]. Raises End_of_file if the server
   closed the connection. *)
let receive c on_reply =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if n = 0 then raise End_of_file;
  let now = Measure.now () in
  Buffer.add_subbytes c.inbuf c.chunk 0 n;
  let s = Buffer.contents c.inbuf in
  let rec lines from =
    match String.index_from_opt s from '\n' with
    | None -> from
    | Some j ->
        (match feed c (String.sub s from (j - from)) with
        | Some (p, reply) -> on_reply p reply now
        | None -> ());
        lines (j + 1)
  in
  let used = lines 0 in
  Buffer.clear c.inbuf;
  Buffer.add_substring c.inbuf s used (String.length s - used)

let outstanding conns = List.exists (fun c -> not (Queue.is_empty c.queue)) conns

(* Wait up to [timeout] seconds for replies on any connection;
   [on_reply conn pending reply receive_time] for each one. *)
let poll conns ~timeout on_reply =
  let fds = List.map (fun c -> c.fd) conns in
  match Unix.select fds [] [] (Float.max 0. timeout) with
  | ready, _, _ ->
      List.iter (fun c -> if List.mem c.fd ready then receive c (on_reply c)) conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* One blocking round trip. *)
let request c line =
  enqueue c ~due:(Measure.now ()) line line;
  flush c;
  let result = ref None in
  while !result = None do
    poll [ c ] ~timeout:1.0 (fun _ _ reply _ -> result := Some reply)
  done;
  Option.get !result

(* ------------------------------------------------------------------ *)
(* Load loops                                                           *)

(* Closed loop: each connection keeps [depth] requests in flight until
   [duration] has passed, then drains. [on_reply line reply ~due ~now]
   is called for every reply, [due] being when it was sent. *)
let closed_loop conns ~depth ~duration ~next ~on_reply =
  let stop_at = Measure.now () +. duration in
  let send c =
    let line = next () in
    enqueue c ~due:(Measure.now ()) line line
  in
  List.iter (fun c -> for _ = 1 to depth do send c done) conns;
  List.iter flush conns;
  while outstanding conns do
    poll conns ~timeout:0.05 (fun c p reply now ->
        on_reply p.tag reply ~due:p.due ~now;
        if now < stop_at then send c);
    List.iter flush conns
  done

(* One request at a time on [c] while [go ()] holds.
   [on_reply line reply ~wall ~cpu] gets the round trip's wall seconds
   and the daemon CPU seconds spent since the previous reply: the daemon
   is idle between a reply and the next request, so that is what this
   request cost it. *)
let ping_pong srv c ~go ~next ~on_reply =
  let cpu = ref (cpu_s srv) in
  while go () do
    let line = next () in
    let t0 = Measure.now () in
    let reply = request c line in
    let wall = Measure.now () -. t0 in
    let c1 = cpu_s srv in
    on_reply line reply ~wall ~cpu:(c1 -. !cpu);
    cpu := c1
  done

(* Open loop: request [i] is due [arrivals.(i)] seconds after the start,
   whatever the replies do, round-robin over the connections. The
   caller times latency from [due], so a stall also charges the requests
   queued behind it. Returns how late each request was actually written. *)
let spin_s = 0.002

let open_loop conns ~arrivals ~next ~on_reply =
  let conns_a = Array.of_list conns in
  let k = Array.length conns_a in
  let n = Array.length arrivals in
  let lag = Measure.Samples.create () in
  let t0 = Measure.now () in
  let i = ref 0 in
  while !i < n || outstanding conns do
    let now = Measure.now () in
    let first = !i in
    while !i < n && t0 +. arrivals.(!i) <= now do
      let line = next () in
      enqueue conns_a.(!i mod k) ~due:(t0 +. arrivals.(!i)) line line;
      incr i
    done;
    List.iter flush conns;
    let sent = Measure.now () in
    for j = first to !i - 1 do
      Measure.Samples.add lag (sent -. (t0 +. arrivals.(j)))
    done;
    (* Sleep only while the next send is far off: waking from select can
       take milliseconds on a busy host, which would make the generator
       late. Closer than [spin_s], poll without blocking. *)
    let timeout =
      if !i < n then
        let wait = t0 +. arrivals.(!i) -. Measure.now () in
        if wait < spin_s then 0. else wait -. spin_s
      else 0.05
    in
    poll conns ~timeout (fun _ p reply now -> on_reply p.tag reply ~due:p.due ~now)
  done;
  Measure.Samples.to_array lag
