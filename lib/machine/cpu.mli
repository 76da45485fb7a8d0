(** Machine state and the reference interpreter (internal layer).

    This is the concrete state record plus the per-instruction interpreter
    that defines the architecture's semantics. External code should use the
    {!Machine} facade, which re-exports everything here with [t] abstract
    and adds the threaded-engine dispatch; the record is public in this
    interface so that {!Engine} can compile straight against it. *)

type control = Jump of int | Stop

type outcome = Halted | Trapped of Trap.t | Fuel_exhausted

(** Per-machine execution policy, fixed at creation; re-exported (with
    documentation) as {!Machine.Config}. *)
type config = {
  engine : bool;
  fuel : int;
  trace : (int -> int Insn.t -> unit) option;
  obs : Hppa_obs.Obs.Registry.t option;
  obs_labels : (string * string) list;
}

val default_config : config

(** Dispatch-path profiling counters, settled by {!Machine.run} and the
    engine driver; published as [hppa_machine_*] when a registry is
    attached. *)
type profile = {
  engine_runs : Hppa_obs.Obs.Counter.t;
  interp_runs : Hppa_obs.Obs.Counter.t;
  translations : Hppa_obs.Obs.Counter.t;
  translate_reuses : Hppa_obs.Obs.Counter.t;
  block_cycles : Hppa_obs.Obs.Counter.t;
  step_cycles : Hppa_obs.Obs.Counter.t;
}

type t = {
  prog : Program.resolved;
  code : int Insn.t array;
      (** [Program.code prog], flattened once at {!create}: the
          interpreter's fetch and the scalar engine's translation read
          it ({!Engine_batch} reads through [Program.insn]) *)
  regs : int32 array;
  mem : int32 array;
  delay : bool;
  mutable carry : bool;
  mutable v : bool;
  mutable nullify : bool;
  mutable pending : control option;
  mutable pc : int;
  mutable halted : bool;
  stats : Stats.t;
  mutable trace : (int -> int Insn.t -> unit) option;
  mutable icache : Icache.t option;
  mutable engine : (int -> outcome) option;
  mutable used_engine : bool;
  cfg : config;
  prof : profile;
}

val halt_sentinel : Hppa_word.Word.t

val arg_regs : Reg.t array
(** The call convention's argument registers, in argument order:
    millicode takes up to four words in [arg0..arg3], and the 128/64
    divide its divisor dword in [ret0:ret1], so a fifth and sixth
    argument land there. Its length is the argument limit of
    {!Machine.call} and {!Engine_batch.call}. *)

val create :
  ?mem_bytes:int -> ?delay_slots:bool -> ?config:config -> Program.resolved -> t
val delay_slots : t -> bool
val program : t -> Program.resolved
val reset : t -> unit
val get : t -> Reg.t -> Hppa_word.Word.t
val set : t -> Reg.t -> Hppa_word.Word.t -> unit
val carry : t -> bool
val v_bit : t -> bool
val pc : t -> int
val set_pc : t -> int -> unit
val load_word : t -> int32 -> (Hppa_word.Word.t, Trap.t) result
val store_word : t -> int32 -> Hppa_word.Word.t -> (unit, Trap.t) result
val stats : t -> Stats.t
val set_trace : t -> (int -> int Insn.t -> unit) option -> unit
val set_icache : t -> Icache.t option -> unit
val icache : t -> Icache.t option

val step : t -> (unit, Trap.t) result
val run : ?fuel:int -> t -> outcome
