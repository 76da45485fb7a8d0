(** Instruction semantics shared by the two translators (internal layer).

    Each instruction form is stated once here and specialised twice: by
    {!Engine}, whose operands are its register file and register
    numbers, and by {!Engine_batch}, whose operands are one register's
    lane array and a lane. Sources are passed as values, the destination
    as an (array, index) pair and the PSW bits as a {!psw} record. Every
    form is [[@inline]], so a call compiles to straight-line code in the
    calling closure. {!Cpu} is deliberately not built on this module: it
    is the independent [Word]-based reference both translators are
    tested against.

    Values are unsigned 32-bit words in a native int ([0 .. 2^32-1]).
    Register slot {!sink} absorbs writes aimed at [r0]. *)

val wrap : int -> int
(** Truncate a native sum to a word. *)

val sink : int
(** Register slot 32, the write target for [r0]; files have 33 slots. *)

val src : Reg.t -> int
(** A source register's slot. *)

val dst : Reg.t -> int
(** A destination register's slot ({!sink} for [r0]). *)

val imm : int32 -> int
(** An immediate as a word. *)

(** {1 Arithmetic} *)

(** The PSW carry and V bits: one record per machine or lane, so
    neither engine pays an array bounds check per flag. *)
type psw = { mutable carry : bool; mutable v : bool }

(** [rd.(d)] is the target. Each form returns [true] when [~trap] holds
    and the operation overflows a signed word; the target is then left
    unwritten (the PSW bits are already set). Pass [~trap] as a literal
    so the test folds away. *)

val add : trap:bool -> int -> int -> int array -> int -> psw -> bool
(** [ADD]/[ADDI]: carry out; V cleared. *)

val addc : trap:bool -> int -> int -> int array -> int -> psw -> bool
(** [ADDC]: adds the carry in, sets the carry out. *)

val sub : trap:bool -> int -> int -> int array -> int -> psw -> bool
(** [SUB]/[SUBI] ([x - y]; SUBI passes the immediate as [x]): carry is
    NOT borrow; V cleared. *)

val subb : trap:bool -> int -> int -> int array -> int -> psw -> bool
(** [SUBB]: subtracts NOT carry, sets carry = NOT borrow. *)

val shadd : trap:bool -> int -> int -> int -> int array -> int -> psw -> bool
(** [SHkADD] with shift [k]: carry out; the trapping form uses §4's
    circuit (the [k+1] top bits of [x] equal, and no overflow in the
    add). *)

val andcm : int -> int -> int
(** [x AND NOT y]. *)

val ds : int -> int -> int array -> int -> psw -> unit
(** [DS]: one non-restoring divide step on V and carry. *)

(** {1 Fields, memory and branches} *)

val comclr : (int -> int -> bool) -> int -> int -> int array -> int -> bool
(** [COMCLR]/[COMICLR]: clears the target; [true] nullifies the next
    instruction. *)

val extru : pos:int -> len:int -> int -> int
val extrs : pos:int -> len:int -> int -> int
val zdep : pos:int -> len:int -> int -> int
val shd : sa:int -> int -> int -> int

val mem_ok : words:int -> int -> bool
(** A word access at this address is aligned and inside [words]. *)

val mem_fault : int -> Trap.t
(** The trap of an access {!mem_ok} refused. *)

val addib : (int -> int -> bool) -> int -> int -> int array -> int -> bool
(** [ADDIB]: writes the counter, then [true] when the branch is taken:
    the counter persists even into a [Bad_pc] trap. *)

val blr : pc:int -> int array -> int -> int array -> int -> int
(** [BLR]: links, then reads the index register (it may be the link
    target) and returns the branch target. *)

val bv : int -> int -> int
(** [bv x base]: the [BV] target. *)

val halt : int
(** The [BV] target that halts the run with the PC past the branch. *)

val in_image : int -> int -> bool
(** [in_image len target]: a taken branch's target is inside the image;
    otherwise it traps [Bad_pc target] at the branch without counting as
    taken. *)

(** {1 Translation} *)

val cond_fn : Cond.t -> int -> int -> bool
(** [Cond.eval] on words: monomorphic and allocation-free. *)

val intern_mnemonics : int Insn.t array -> int array * string array
(** Each instruction's dense mnemonic id, and each id's mnemonic:
    closures count executions into an int array by id. *)

(** A translated instruction: a [Body] falls through (and may leave the
    block only by trapping); a [Term] ends a basic block. *)
type ('b, 't) compiled = Body of 'b | Term of 't

type 't threaded = {
  ops : 't array;  (** each instruction alone, for fuel-bounded steps *)
  blocks : 't array;  (** the superblock from each entry point *)
  blen : int array;  (** its instruction count *)
}

val thread :
  int ->
  (int -> ('b, 't) compiled) ->
  dummy:'t ->
  step:(int -> 'b -> 't) ->
  chain:('b -> 't -> 't) ->
  't threaded
(** [thread len compile ~dummy ~step ~chain] translates
    [pc = len-1 .. 0] and threads the closures into superblocks:
    [step pc b] makes a body a one-instruction step to [pc + 1], and
    [chain b next] runs [b] and then the successor's block. [dummy] only
    fills the arrays before they are written. *)
