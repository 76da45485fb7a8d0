(** Closure-threaded execution engine (internal layer).

    Compiles a machine's resolved program once into specialized closures
    chained as basic-block superblocks, and returns a run function that
    is observationally identical to {!Cpu.run} — same registers, PSW
    C/V, memory, traps, PC and {!Stats} totals — on the modes it
    supports. Each closure is {!Sem}'s statement of its instruction form
    specialised to one register file; a trap raises out of the block
    and a terminator returns the next PC. {!Machine.run} selects it
    transparently and falls back to the reference interpreter
    otherwise. *)

val make : Cpu.t -> int -> Cpu.outcome
(** [make cpu] translates [cpu]'s program; [make cpu fuel] then runs
    from [cpu.pc] until halt, trap, or [fuel] instructions (negative
    fuel = unlimited, as in {!Cpu.run}), writing all architectural state
    back into [cpu]. The translation is reusable: keep the partial
    application and call it once per run.

    Caller contract (checked by {!Machine.run}): the machine is in the
    default branch model (no delay slots), has no trace hook or icache
    attached, is not halted, has no pending transfer, and [cpu.pc] is
    inside the program image. *)
