(* Host clocks, order statistics and the in-memory span recorder used by
   the traced run. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* CPU seconds this process has run (user + system, all threads). On a
   shared virtual machine the wall clock also counts the time the
   hypervisor gives this machine's CPUs to someone else (steal time,
   10-25% in some hours); the CPU clock does not, so the end-to-end
   figures are CPU times. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let cpu_time f =
  let c0 = cpu () in
  let r = f () in
  (r, cpu () -. c0)

(* CPU seconds [f ()] takes in a fresh process: a child forked before
   [f] runs, so it builds every lazy table and memo [f] needs that the
   parent has not built yet. The parent must not have started a domain. *)
let cpu_in_child f =
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let code =
        match cpu_time f with
        | (), dt ->
            let s = Printf.sprintf "%h" dt in
            ignore (Unix.write_substring w s 0 (String.length s));
            0
        | exception _ -> 1
      in
      Unix._exit code
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let s = In_channel.input_all ic in
      close_in ic;
      let rec wait () =
        try snd (Unix.waitpid [] pid)
        with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      in
      (match wait () with
      | Unix.WEXITED 0 -> float_of_string s
      | _ -> failwith "set-up failed in a child process")

(* Nearest-rank percentile of an unsorted sample; [p] in [0, 100]. *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 then nan
  else
    let s = Array.copy xs in
    Array.sort compare s;
    let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    s.(max 0 (min (n - 1) (k - 1)))

let median xs = percentile 50. xs

let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else Array.fold_left ( +. ) 0. xs /. float_of_int n

(* A run's figures come from fixed windows of its samples.
   [windows ~width ~t0 ~t1 ts xs] groups the values [xs] by their time
   stamps [ts] into the full [width]-second windows between [t0] and
   [t1] (a partial last window is dropped; so is an empty one). *)
let windows ~width ~t0 ~t1 ts xs =
  let n = max 1 (int_of_float ((t1 -. t0) /. width)) in
  let b = Array.make n [] in
  Array.iteri
    (fun i t ->
      let k = int_of_float ((t -. t0) /. width) in
      if k >= 0 && k < n then b.(k) <- xs.(i) :: b.(k))
    ts;
  Array.of_list (List.filter_map (function [] -> None | l -> Some (Array.of_list l)) (Array.to_list b))

(* Median over windows of [f window]. *)
let window_median f ws = median (Array.map f ws)

(* The CPU of the machine this was tuned on runs in two states about 1.7
   times apart in speed (with and without a busy neighbour on the same
   core, presumably), for seconds to minutes at a time and with no steal
   time to show it; the slow one is the usual. A median over a run's
   windows reads whichever state held more of the run, so from run to
   run it jumped between the two. A gated figure is therefore taken on
   the slow side of the windows: the first quartile of the windows'
   throughputs; and the percentiles of the times in the slowest quarter
   of the windows (by their median time), pooled, since a 90th
   percentile of one window's few hundred samples is itself noisy. A run
   then reads the slow state whenever at least a quarter of it ran there. *)
let slow_rate f ws = percentile 25. (Array.map f ws)

let slow_times ws =
  let by_median = Array.map (fun w -> (median w, w)) ws in
  Array.sort (fun (a, _) (b, _) -> compare b a) by_median;
  let k = max 1 ((Array.length ws + 3) / 4) in
  Array.concat (Array.to_list (Array.map snd (Array.sub by_median 0 (min k (Array.length ws)))))

(* Growable float buffer for latency samples. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

(* Spans: one per call the benchmark makes into a layer's public
   function during the traced run. [req] groups the spans of one
   replayed input; [parent] is the span that caused this one (0 for a
   top-level span). Kept in memory and written out when the run ends. *)
module Span = struct
  type t = {
    id : int;
    parent : int;
    req : int;
    name : string;
    t0 : float;
    t1 : float;
  }

  let recorded : t list ref = ref []
  let next_id = ref 0
  let current = ref 0
  let current_req = ref 0

  let reset () =
    recorded := [];
    next_id := 0;
    current := 0

  let set_request r = current_req := r

  let with_span name f =
    incr next_id;
    let id = !next_id and parent = !current in
    current := id;
    let t0 = now () in
    let finish () =
      let t1 = now () in
      current := parent;
      recorded :=
        { id; parent; req = !current_req; name; t0; t1 } :: !recorded
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e

  (* Self time of every span (duration minus the part covered by its
     children), grouped by span name. *)
  let self_times () =
    let child = Hashtbl.create 1024 in
    List.iter
      (fun s ->
        if s.parent <> 0 then
          Hashtbl.replace child s.parent
            ((s.t1 -. s.t0)
            +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
      !recorded;
    let by_name = Hashtbl.create 64 in
    List.iter
      (fun s ->
        let self =
          s.t1 -. s.t0
          -. Option.value (Hashtbl.find_opt child s.id) ~default:0.
        in
        Hashtbl.replace by_name s.name
          (self :: Option.value (Hashtbl.find_opt by_name s.name) ~default:[]))
      !recorded;
    fun name ->
      Array.of_list (Option.value (Hashtbl.find_opt by_name name) ~default:[])

  let write path =
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\"start_ns\":%.0f,\"end_ns\":%.0f}\n"
          s.id s.parent s.req s.name (s.t0 *. 1e9) (s.t1 *. 1e9))
      (List.rev !recorded);
    close_out oc
end
