(* Public facade over the machine state ({!Cpu}) and the two execution
   engines: the per-instruction reference interpreter and the
   closure-threaded engine ({!Engine}). [run] picks the engine
   transparently whenever the requested semantics are within its reach,
   so callers — bench, chainc, hppa_run — get the fast path for free. *)

include Cpu
module Obs = Hppa_obs.Obs

module Config = struct
  type t = Cpu.config = {
    engine : bool;
    fuel : int;
    trace : (int -> int Insn.t -> unit) option;
    obs : Obs.Registry.t option;
    obs_labels : (string * string) list;
  }

  let default = Cpu.default_config
end

let config t = { t.cfg with trace = t.trace }

(* The threaded engine implements the default branch model with no
   observation hooks; everything else stays on the reference
   interpreter. [pending] is always [None] outside delay-slot mode, but
   check it anyway so a hand-stepped machine can never be mis-entered. *)
let engine_eligible t =
  t.cfg.engine && (not t.delay)
  && (match t.trace with None -> true | Some _ -> false)
  && (match t.icache with None -> true | Some _ -> false)
  && (match t.pending with None -> true | Some _ -> false)
  && t.pc >= 0
  && t.pc < Array.length t.code

let run ?fuel t =
  let fuel = match fuel with Some f -> f | None -> t.cfg.fuel in
  if t.halted then Halted
  else if engine_eligible t then begin
    t.used_engine <- true;
    Obs.Counter.incr t.prof.engine_runs;
    let eng =
      match t.engine with
      | Some e ->
          Obs.Counter.incr t.prof.translate_reuses;
          e
      | None ->
          Obs.Counter.incr t.prof.translations;
          let e = Engine.make t in
          t.engine <- Some e;
          e
    in
    let outcome = eng fuel in
    (match outcome with
    | Trapped trap -> Stats.record_trap t.stats (Trap.name trap)
    | Halted | Fuel_exhausted -> ());
    outcome
  end
  else begin
    t.used_engine <- false;
    Obs.Counter.incr t.prof.interp_runs;
    Cpu.run ~fuel t
  end

type profile_counts = {
  engine_runs : int;
  interp_runs : int;
  translations : int;
  translate_reuses : int;
  block_cycles : int;
  step_cycles : int;
}

let profile t =
  {
    engine_runs = Obs.Counter.get t.prof.engine_runs;
    interp_runs = Obs.Counter.get t.prof.interp_runs;
    translations = Obs.Counter.get t.prof.translations;
    translate_reuses = Obs.Counter.get t.prof.translate_reuses;
    block_cycles = Obs.Counter.get t.prof.block_cycles;
    step_cycles = Obs.Counter.get t.prof.step_cycles;
  }

let used_engine t = t.used_engine

let call ?fuel t name ~args =
  let entry =
    match Program.symbol t.prog name with
    | Some a -> a
    | None -> invalid_arg (Printf.sprintf "Machine.call: no entry point %S" name)
  in
  let nargs = Array.length arg_regs in
  if List.length args > nargs then
    invalid_arg (Printf.sprintf "Machine.call: more than %d arguments" nargs);
  List.iteri (fun i v -> set t arg_regs.(i) v) args;
  set t Reg.rp halt_sentinel;
  set t Reg.mrp halt_sentinel;
  t.halted <- false;
  t.nullify <- false;
  t.pending <- None;
  t.pc <- entry;
  run ?fuel t

let call_cycles ?fuel t name ~args =
  let before = Stats.cycles t.stats in
  let outcome = call ?fuel t name ~args in
  (outcome, Stats.cycles t.stats - before)

module Batch = Engine_batch
