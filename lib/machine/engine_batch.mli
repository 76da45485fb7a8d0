(** Batched (structure-of-arrays) execution engine.

    Translates a program once and runs it over a vector of lanes — one
    independent machine per lane — with every per-instruction cost
    (closure dispatch, mnemonic bookkeeping, branch checks) paid once
    per instruction per cohort of lanes instead of once per lane. Each
    closure's lane loop applies {!Sem}'s statement of the instruction,
    the one {!Engine} specialises too. Register state is one unboxed
    [int array] per architectural register; a lane's private memory
    image is allocated on its first store and reads 0 until then.

    Divergent lanes are scheduled as min-PC cohorts and reconverge by PC
    order; a lane that traps or exhausts fuel records its own outcome
    and is masked out while its neighbours proceed. The scheduler counts
    each lane's cycles once per dispatch. Every lane observes
    exactly the scalar {!Engine} semantics — outcome, registers, PSW
    C/V, PC, memory and per-lane cycle counts — which the differential
    test suite pins against both the scalar engine and the {!Cpu}
    reference over all millicode entries.

    Instances are not thread-safe; give each domain its own. *)

type t

val create :
  ?mem_bytes:int ->
  ?obs:Hppa_obs.Obs.Registry.t ->
  ?obs_labels:(string * string) list ->
  lanes:int ->
  Program.resolved ->
  t
(** Translate [prog] for a batch of [lanes] lanes. [mem_bytes] (default
    64 KiB) sizes each lane's private memory image, allocated on that
    lane's first store. When [obs] is given, the
    aggregate [hppa_sim_*] statistics and the
    [hppa_machine_batch_lanes_total] / [hppa_machine_batch_lanes_trapped_total]
    / [hppa_machine_batch_dispatches_total] counters are published under
    [obs_labels]. Raises [Invalid_argument] if [lanes <= 0]. *)

val lanes : t -> int
(** The translated batch capacity. *)

val width : t -> int
(** Lanes active in the most recent {!call} (0 before the first). *)

val program : t -> Program.resolved

val call : ?fuel:int -> t -> string -> args:Hppa_word.Word.t list array -> unit
(** [call t entry ~args] runs one batch: lane [l] gets the argument list
    [args.(l)] loaded into [arg0..arg3], [rp]/[mrp] planted with the
    halt sentinel, and starts at [entry]; [Array.length args] lanes run
    (at most {!lanes}). Each lane's fuel budget is [fuel] (default
    1_000_000; negative = unlimited), consumed independently. Registers,
    PSW bits and memory persist across calls, like reusing a scalar
    machine. Results are read per lane with the accessors below.
    Raises [Invalid_argument] on an unknown entry, an empty batch, more
    lanes than {!lanes}, or more than 6 arguments for a lane
    ({!Cpu.arg_regs}); every lane is checked before any is touched, so a
    rejected call leaves the previous call's state and results intact. *)

val outcome : t -> lane:int -> Cpu.outcome
(** The lane's outcome after the last {!call}. *)

val get_reg : t -> lane:int -> Reg.t -> Hppa_word.Word.t
val set_reg : t -> lane:int -> Reg.t -> Hppa_word.Word.t -> unit
(** Writes to [r0] are discarded, as on the hardware. *)

val carry : t -> lane:int -> bool
val v_bit : t -> lane:int -> bool

val pc : t -> lane:int -> int
(** After [Halted] the PC past the halting branch; after [Trapped] the
    trapping instruction; after [Fuel_exhausted] the next instruction —
    the same convention as {!Machine.pc}. *)

val cycles : t -> lane:int -> int
(** Cycles (executed + nullified) this lane spent in the last {!call};
    equals the scalar engine's {!Machine.call_cycles} delta. *)

val load_word : t -> lane:int -> int32 -> (Hppa_word.Word.t, Trap.t) result

val stats : t -> Stats.t
(** Aggregate statistics across all lanes and calls: equals the sum of
    the corresponding scalar runs (the differential suite pins this). *)

(** Monotonic batch-dispatch counters, also published as
    [hppa_machine_batch_*] when a registry is attached: total lanes run,
    lanes that ended in a trap, and cohort dispatches (each one
    superblock or single instruction executed for a whole cohort). *)
type counters = { lanes_run : int; lanes_trapped : int; dispatches : int }

val counters : t -> counters
