(** The simulated HP Precision machine.

    State: 32 general registers with [r0] hardwired to zero, the PSW carry
    bit [C], the divide-step state bit [V], the [COMCLR] nullify flag, a PC
    in instruction units, and a small byte-addressed word-aligned memory.

    Cost model (see DESIGN.md): every instruction costs one cycle, nullified
    ones included; dynamic instruction count equals cycles.

    PSW update rules: [ADD]/[ADDC]/[SUB]/[SUBB]/[ADDI]/[SUBI], the
    [SHxADD] family (carry of the 32-bit addition of the shifted operand)
    and [DS] write the carry bit ([C]); plain [ADD]/[SUB]/[ADDI]/[SUBI]
    also clear [V], so
    [add r0, r0, r0] is the canonical divide-loop initialiser. Shift-and-add,
    logical, shift and branch instructions leave both bits alone ([ADDIB]
    included — a documented simplification). [DS] alone writes [V].

    The divide step [DS a, b, t] computes one bit of non-restoring division.
    The 33-bit partial remainder R is kept as [u32(a) - V*2^32]; the step is

    {v R2 = 2*R + C                  C = incoming dividend bit
      R' = R2 - u32(b)   if V = 0   (remainder was non-negative)
         = R2 + u32(b)   if V = 1
      t := low 32 bits of R';  V := R' < 0;  C := R' >= 0 v}

    so that pairing [ADDC l, l, l] (shift the dividend/quotient window) with
    [DS h, divisor, h], repeated 32 times, divides a 64-bit dividend exactly
    as §4 of the paper describes. *)

type t

type outcome = Cpu.outcome =
  | Halted  (** control returned to the halt sentinel *)
  | Trapped of Trap.t
  | Fuel_exhausted

val halt_sentinel : Hppa_word.Word.t
(** [0xffff_ffff]; a [BV] (or [BLR]) whose target equals this value stops the
    machine. {!call} plants it in [rp]. *)

(** Per-machine execution policy, fixed at {!create} time. *)
module Config : sig
  type t = {
    engine : bool;
        (** allow the threaded engine on eligible runs (default [true]) *)
    fuel : int;
        (** default fuel for {!run}/{!call} when the caller passes none
            (default 1_000_000) *)
    trace : (int -> int Insn.t -> unit) option;
        (** per-instruction hook; forces the reference-interpreter path *)
    obs : Hppa_obs.Obs.Registry.t option;
        (** registry to publish this machine's [hppa_sim_*] statistics and
            [hppa_machine_*] dispatch counters into *)
    obs_labels : (string * string) list;
        (** labels attached to every metric this machine publishes —
            distinguish machines sharing one registry (e.g.
            [("kernel", "mul_final")] in bench) *)
  }

  val default : t
end

val create :
  ?mem_bytes:int -> ?delay_slots:bool -> ?config:Config.t -> Program.resolved -> t
(** [mem_bytes] defaults to 64 KiB and is rounded up to a word multiple.
    [config] defaults to {!Config.default}.

    [delay_slots] (default false) selects the real pipeline's branch
    model: a taken branch transfers control only {e after} the following
    instruction (the delay slot) executes; the [,n] completer on a branch
    nullifies the slot when the branch is taken (one cycle, no effect).
    Code written for the default model must be transformed first — see
    {!Delay} — or every taken branch will leak its successor. *)

val delay_slots : t -> bool

val config : t -> Config.t
(** The machine's configuration; the [trace] field reflects later calls
    to {!set_trace}. *)

val program : t -> Program.resolved
val reset : t -> unit
(** Zero the registers, PSW bits and statistics (memory is preserved). *)

val get : t -> Reg.t -> Hppa_word.Word.t
val set : t -> Reg.t -> Hppa_word.Word.t -> unit
(** Writes to [r0] are discarded, as on the hardware. *)

val carry : t -> bool
val v_bit : t -> bool
val pc : t -> int
val set_pc : t -> int -> unit
val load_word : t -> int32 -> (Hppa_word.Word.t, Trap.t) result
val store_word : t -> int32 -> Hppa_word.Word.t -> (unit, Trap.t) result
val stats : t -> Stats.t

val set_trace : t -> (int -> int Insn.t -> unit) option -> unit
(** Hook called before each (non-nullified) instruction executes. *)

val set_icache : t -> Icache.t option -> unit
(** Attach an instruction-cache model: every fetch (nullified slots
    included) is looked up. Cycle counts are unaffected; miss penalties
    are applied by the consumer (see the bench's icache experiment). *)

val icache : t -> Icache.t option

val step : t -> (unit, Trap.t) result
(** Execute one instruction (or consume one nullification slot). Always
    uses the reference interpreter. *)

val run : ?fuel:int -> t -> outcome
(** Run from the current PC until halt, trap or [fuel] cycles (default
    1_000_000). The PC after [Trapped] is the address of the trapping
    instruction.

    Execution engine: the program is translated into threaded closures
    ({!Engine}), each block once, on its first dispatch, and runs on
    that fast path whenever the machine is in the default branch model
    with no trace hook and no icache attached; delay-slot mode and the observation hooks always
    use the per-instruction reference interpreter. The two are
    observationally identical — registers, PSW C/V, memory, traps, PC
    and statistics — which the differential test suite enforces. *)

val used_engine : t -> bool
(** Whether the most recent {!run} (or {!call}) took the threaded-engine
    path. Also published as [hppa_machine_runs_total{path=...}] when a
    registry is attached. *)

(** Dispatch-path profile of this machine: how many runs took the engine
    vs the interpreter, translate-cache behaviour (a [translation] sets
    up the threaded engine, whose blocks are then translated as runs
    first reach them; a [translate_reuse] is an engine run that found
    the engine already set up), and the engine's cycles split between
    fused superblocks and single-stepped tails (fuel-bounded block
    entries, nullify shadows). *)
type profile_counts = {
  engine_runs : int;
  interp_runs : int;
  translations : int;
  translate_reuses : int;
  block_cycles : int;
  step_cycles : int;
}

val profile : t -> profile_counts

val call :
  ?fuel:int -> t -> string -> args:Hppa_word.Word.t list -> outcome
(** Procedure-call convention: load up to four arguments into
    [arg0..arg3] — a fifth and sixth land in [ret0]/[ret1], the 128/64
    divide's divisor slot — set [rp] (and [mrp]) to the halt sentinel,
    jump to the label, and run. Results are read from [ret0]/[ret1] by
    the caller. Raises [Invalid_argument] on an unknown label or more
    than six arguments. *)

val call_cycles :
  ?fuel:int -> t -> string -> args:Hppa_word.Word.t list -> outcome * int
(** [call] plus the cycle count of just this call. *)

module Batch = Engine_batch
(** The batched (structure-of-arrays) engine: translate once, run a
    whole vector of operand sets with per-lane trap capture. See
    {!Engine_batch}. *)
