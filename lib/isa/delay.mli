(** Delay-slot scheduling.

    The real Precision pipeline executes the instruction after every taken
    branch (the delay slot); HP's hand-written millicode filled those slots
    with useful work, which is exactly why the paper's instruction counts
    equal its cycle counts. This module transforms code written for the
    simple model (branch transfers immediately) into delay-slot-correct
    code at two quality levels:

    - {!naive}: set the [,n] completer on every branch. Semantics are
      preserved; every taken branch pays one nullified slot cycle — the
      cost of {e unscheduled} code.
    - {!schedule}: move the instruction preceding a branch into its slot
      when provably safe (no dependence between the moved instruction and
      the branch's operands, condition, or link/counter writes; no label
      between them; neither lies in the shadow of a nullifying
      instruction), falling back to [,n] otherwise. Filled slots make the
      taken branch free again, recovering the simple model's cycle count
      for that branch.

    The scheduler is deliberately local (single-predecessor moves only) —
    like HP's millicode, hot loops benefit most. The bench's [delay]
    experiment quantifies all three models on the whole millicode
    library. *)

val may_trap : 'lbl Insn.t -> bool
(** May the instruction trap? (Overflow-trapping arithmetic, loads and
    stores, [BREAK].) Trapping instructions keep their program position so
    trap PCs and pre-trap state stay exact; a trapping instruction inside
    an executed delay slot would report the wrong PC. *)

val naive : Program.source -> Program.source

val schedule : Program.source -> Program.source

type stats = { branches : int; filled : int; nullified : int }

val stats_of : Program.source -> stats
(** Count branches and how their slots were handled in already-transformed
    code: [filled] branches carry no [,n] (their slot does real work),
    [nullified] ones do. *)
