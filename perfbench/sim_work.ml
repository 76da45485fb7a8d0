(* sim_kernels: the millicode entries on the default Machine path and on
   Machine.Batch, in-process; every result checked. *)

module Machine = Hppa_machine.Machine
module Batch = Hppa_machine.Machine.Batch
module Cpu = Hppa_machine.Cpu
module Samples = Measure.Samples
module Span = Measure.Span

(* A set-up takes about 30 ms, which one busy moment of the host can
   double: take the median of more of them than the other workloads do. *)
let setups = 9
let lanes = 64  (* the one batch width measured *)
let window = 1.0  (* seconds; about 20 passes *)

type state = { mach : Machine.t; batch : Batch.t }

(* Assemble and load the library, then run every entry once on both
   paths so translation is done before timing. *)
let setup kernels =
  let mach = Hppa.Millicode.machine () in
  let batch = Batch.create ~lanes (Hppa.Millicode.resolved ()) in
  List.iter
    (fun (k : Gen.kernel) ->
      ignore (Machine.call mach k.entry ~args:k.args.(0));
      Batch.call batch k.entry ~args:[| k.args.(0) |])
    kernels;
  { mach; batch }

let result_regs = [| Reg.ret0; Reg.ret1; Reg.arg0; Reg.arg1 |]

(* Results of one pass, kept to be checked after the timed region. *)
type pass = { outcomes : Cpu.outcome array; regs : int32 array array; cycles : int }

let scalar_pass st (k : Gen.kernel) =
  let n = Array.length k.args in
  let outcomes = Array.make n Cpu.Halted and regs = Array.make_matrix n 4 0l in
  let cycles = ref 0 in
  for i = 0 to n - 1 do
    let o, c = Machine.call_cycles st.mach k.entry ~args:k.args.(i) in
    outcomes.(i) <- o;
    cycles := !cycles + c;
    let r = regs.(i) in
    for j = 0 to 3 do
      r.(j) <- Machine.get st.mach result_regs.(j)
    done
  done;
  { outcomes; regs; cycles = !cycles }

(* One batch dispatch per block of [lanes] operand sets. *)
let batch_pass st (k : Gen.kernel) =
  let n = Array.length k.args in
  let outcomes = Array.make n Cpu.Halted and regs = Array.make_matrix n 4 0l in
  let cycles = ref 0 in
  let base = ref 0 in
  while !base < n do
    let w = min lanes (n - !base) in
    let args = Array.sub k.args !base w in
    Batch.call st.batch k.entry ~args;
    for l = 0 to w - 1 do
      let i = !base + l in
      outcomes.(i) <- Batch.outcome st.batch ~lane:l;
      cycles := !cycles + Batch.cycles st.batch ~lane:l;
      for j = 0 to 3 do
        regs.(i).(j) <- Batch.get_reg st.batch ~lane:l result_regs.(j)
      done
    done;
    base := !base + w
  done;
  { outcomes; regs; cycles = !cycles }

let check_pass o (k : Gen.kernel) p =
  Array.iteri
    (fun i args ->
      let get r =
        let rec idx j = if Reg.equal result_regs.(j) r then j else idx (j + 1) in
        p.regs.(i).(idx 0)
      in
      Report.tally o (Check.check_kernel ~entry:k.entry ~args ~outcome:p.outcomes.(i) ~get))
    k.args

let run ~seed ~seconds ~trace (o : Report.outcome) =
  let kernels = Gen.sim_kernels ~seed in
  let setup_s =
    Measure.median
      (Array.init setups (fun _ -> Measure.cpu_in_child (fun () -> ignore (setup kernels))))
  in
  let st = setup kernels in
  (* The paper's metric: mean cycles per call of its 32-bit entries. *)
  let paper = List.filter (fun (k : Gen.kernel) -> k.paper) kernels in
  let paper_cycles =
    List.fold_left (fun acc k -> acc + (scalar_pass st k).cycles) 0 paper
  in
  let paper_calls =
    List.fold_left (fun acc (k : Gen.kernel) -> acc + Array.length k.args) 0 paper
  in
  (* Per pass over every kernel: the default path's simulated
     instructions and their CPU (and wall) time, and the CPU (and wall)
     time of the same work on Machine.Batch (one dispatch per 64 operand
     sets). *)
  let passes = ref [] and at = Samples.create () in
  let t0 = Measure.now () in
  let stop_at = t0 +. seconds in
  while Measure.now () < stop_at do
    let insns = ref 0 and cpu = ref 0. and wall = ref 0. in
    let bcpu = ref 0. and bwall = ref 0. in
    List.iter
      (fun (k : Gen.kernel) ->
        let c0 = Measure.cpu () and t0 = Measure.now () in
        let p = scalar_pass st k in
        cpu := !cpu +. (Measure.cpu () -. c0);
        wall := !wall +. (Measure.now () -. t0);
        insns := !insns + p.cycles;
        check_pass o k p;
        let c0 = Measure.cpu () and t0 = Measure.now () in
        let b = batch_pass st k in
        bcpu := !bcpu +. (Measure.cpu () -. c0);
        bwall := !bwall +. (Measure.now () -. t0);
        check_pass o k b;
        if b.cycles <> p.cycles then
          Report.fail o (k.entry ^ ": batch cycles differ from the default path"))
      kernels;
    passes := (float_of_int !insns, !cpu, !wall, !bcpu *. 1e6, !bwall *. 1e6) :: !passes;
    Samples.add at (Measure.now ())
  done;
  let passes = Array.of_list (List.rev !passes) in
  let ws = Measure.windows ~width:window ~t0 ~t1:stop_at (Samples.to_array at) passes in
  let sum f w = Array.fold_left (fun acc p -> acc +. f p) 0. w in
  let rate time w = sum (fun (i, _, _, _, _) -> i) w /. sum time w in
  let batch f = Measure.slow_times (Array.map (Array.map f) ws) in
  let bcpu = batch (fun (_, _, _, b, _) -> b) and bwall = batch (fun (_, _, _, _, b) -> b) in
  let e2e =
    [
      ("setup_s", setup_s);
      ("ops_per_s", Measure.slow_rate (rate (fun (_, c, _, _, _) -> c)) ws);
      ("p50_us", Measure.percentile 50. bcpu);
      ("p90_us", Measure.percentile 90. bcpu);
      ("p99_us", Measure.percentile 99. bcpu);
      ("wall_ops_per_s", Measure.slow_rate (rate (fun (_, _, w, _, _) -> w)) ws);
      ("wall_p50_us", Measure.percentile 50. bwall);
      ("wall_p90_us", Measure.percentile 90. bwall);
      ("cycles_mean", float_of_int paper_cycles /. float_of_int paper_calls);
    ]
  in
  if not trace then (e2e, [])
  else begin
    (* One more pass per kernel on each engine, the interpreter added. *)
    Span.reset ();
    let translate_s =
      Span.with_span "machine.engine.translate" (fun () ->
          let cpu = Cpu.create (Hppa.Millicode.resolved ()) in
          snd (Measure.time (fun () -> let (_ : int -> Cpu.outcome) = Hppa_machine.Engine.make cpu in ())))
    in
    let cpu = Cpu.create (Hppa.Millicode.resolved ()) in
    let d0 = (Batch.counters st.batch).Batch.dispatches in
    let p0 = Machine.profile st.mach in
    let per_kernel =
      List.concat_map
        (fun (k : Gen.kernel) ->
          let cpu_cycles = ref 0 in
          let (), cpu_t =
            Measure.time (fun () ->
                Span.with_span ("machine.cpu." ^ k.entry) (fun () ->
                    Array.iter
                      (fun args ->
                        let outcome, get, c = Check.cpu_call cpu k.entry args in
                        cpu_cycles := !cpu_cycles + c;
                        Report.tally o (Check.check_kernel ~entry:k.entry ~args ~outcome ~get))
                      k.args))
          in
          let p, eng_t =
            Measure.time (fun () ->
                Span.with_span ("machine.engine." ^ k.entry) (fun () -> scalar_pass st k))
          in
          check_pass o k p;
          let b, batch_t =
            Measure.time (fun () ->
                Span.with_span ("machine.batch." ^ k.entry) (fun () -> batch_pass st k))
          in
          check_pass o k b;
          let ns t c = t *. 1e9 /. float_of_int c in
          [
            ("machine.cpu.ns_per_insn." ^ k.entry, ns cpu_t !cpu_cycles);
            ("machine.engine.ns_per_insn." ^ k.entry, ns eng_t p.cycles);
            ("machine.batch.ns_per_insn." ^ k.entry, ns batch_t b.cycles);
          ])
        kernels
    in
    let p1 = Machine.profile st.mach in
    let block = p1.Machine.block_cycles - p0.Machine.block_cycles
    and step = p1.Machine.step_cycles - p0.Machine.step_cycles in
    ( e2e,
      per_kernel
      @ [
          ("machine.engine.translate_us", translate_s *. 1e6);
          ("machine.engine.block_cycle_share", float_of_int block /. float_of_int (block + step));
          ( "machine.batch.dispatches",
            float_of_int ((Batch.counters st.batch).Batch.dispatches - d0) );
        ] )
  end
