(** Instructions of the simulated HP Precision Architecture subset.

    The type is parameterised by the branch-target representation: the
    assembler produces [string t] (symbolic labels) and {!Program.resolve}
    turns them into [int t] (absolute instruction indices) for execution.

    Cost model: every instruction, including a nullified one, costs one
    cycle. Taken branches cost one cycle (the real machine's delay slot is
    assumed filled or nullified at no net cost, matching how the paper counts
    "single-cycle instructions along the dynamic path").

    Differences from the real instruction set are deliberate simplifications
    and are documented in DESIGN.md: instruction addresses are in instruction
    units (not bytes), [Ldaddr] stands in for the LDIL/LDO address formation,
    and [Ds] has the documented one-bit non-restoring semantics of
    {!Machine.Exec}. *)

type reg = Reg.t

(** Three-register ALU operations. [SH1ADD]..[SH3ADD] are the pre-shifter
    shift-and-add forms; the [trap_ov] variants ([ADDO], [SH2ADDO], ...) trap
    on signed overflow, where shift-and-add overflow is detected by the cheap
    sign-comparison circuit of §4. *)
type alu =
  | Add
  | Addc (** add with the PSW carry bit *)
  | Sub
  | Subb (** subtract with the PSW borrow bit *)
  | Shadd of int (** shift left by 1..3 then add *)
  | And
  | Or
  | Xor
  | Andcm (** a AND NOT b *)

type 'lbl t =
  | Alu of { op : alu; a : reg; b : reg; t : reg; trap_ov : bool }
  | Ds of { a : reg; b : reg; t : reg }
      (** Divide step: one bit of non-restoring division (see DESIGN.md). *)
  | Addi of { imm : int32; a : reg; t : reg; trap_ov : bool }
      (** [t := a + imm], 14-bit signed immediate. *)
  | Subi of { imm : int32; a : reg; t : reg; trap_ov : bool }
      (** [t := imm - a], 11-bit signed immediate (PA-RISC SUBI order). *)
  | Comclr of { cond : Cond.t; a : reg; b : reg; t : reg }
      (** Compare [a] with [b]; set [t := 0]; nullify the next instruction if
          the condition holds. *)
  | Comiclr of { cond : Cond.t; imm : int32; a : reg; t : reg }
      (** As [Comclr] with an 11-bit immediate left operand. *)
  | Extr of {
      signed : bool;
      r : reg;
      pos : int;
      len : int;
      t : reg;
      cond : Cond.t;
    }
      (** Extract the [len]-bit field at LSB position [pos] (EXTRU/EXTRS).
          Logical and arithmetic right shifts are the [len = 32 - pos]
          cases. [cond] is the PA-RISC unit-instruction completer: the next
          instruction is nullified when the extracted result satisfies it
          against zero ([Never] = no completer). The paper's nibble loop
          tests a multiplier bit with [extru,= mpy, k, 1, r1]. *)
  | Zdep of { r : reg; pos : int; len : int; t : reg }
      (** Zero [t] and deposit the low [len] bits of [r] at position [pos];
          shift-left-immediate is the [len = 32 - pos] case. *)
  | Shd of { a : reg; b : reg; sa : int; t : reg }
      (** Double shift: [t] gets bits [sa .. sa+31] of the 64-bit value
          [a:b] ([a] high). [sa] in 0..31. *)
  | Ldil of { imm : int32; t : reg }  (** Load the top 21 bits. *)
  | Ldo of { imm : int32; base : reg; t : reg }
      (** Load offset: [t := base + imm] (14-bit); also serves as
          load-immediate and copy. Never traps. *)
  | Ldw of { disp : int32; base : reg; t : reg }
  | Stw of { r : reg; disp : int32; base : reg }
  | Ldaddr of { target : 'lbl; t : reg }
      (** Pseudo: load the address of a label (LDIL/LDO pair on the real
          machine; counted as one cycle here — noted in DESIGN.md). *)
  | Comb of { cond : Cond.t; a : reg; b : reg; target : 'lbl; n : bool }
      (** Compare and branch. On every branch, [n] is the [,n] completer:
          in delay-slot machine mode it nullifies the slot when the branch
          is taken (no effect in the default mode). *)
  | Comib of { cond : Cond.t; imm : int32; a : reg; target : 'lbl; n : bool }
      (** Compare immediate (5-bit signed, the {e left} operand) and
          branch. *)
  | Addib of { cond : Cond.t; imm : int32; a : reg; target : 'lbl; n : bool }
      (** [a := a + imm] (5-bit signed); branch if the {e result} satisfies
          [cond] against zero. *)
  | B of { target : 'lbl; n : bool }
  | Bl of { target : 'lbl; t : reg; n : bool }  (** Branch and link. *)
  | Blr of { x : reg; t : reg; n : bool }
      (** Branch vectored: jump to [pc + 1 + 2*x] — the two-instruction-slot
          case table of §6 — linking in [t]. *)
  | Bv of { x : reg; base : reg; n : bool }
      (** Branch to [base + 2*x]; [Bv r0 base] is the procedure return. *)
  | Break of { code : int }
  | Nop

val map_target : ('a -> 'b) -> 'a t -> 'b t
val target : 'lbl t -> 'lbl option
val equal : ('lbl -> 'lbl -> bool) -> 'lbl t -> 'lbl t -> bool

val is_branch : 'lbl t -> bool
(** True for every control-transfer instruction, including [Blr]/[Bv]. *)

val is_nullifier : 'lbl t -> bool
(** May the instruction nullify its successor? ([COMCLR], [COMICLR], and
    [EXTR] with a condition completer.) {!Delay}'s scheduler never moves
    an instruction out of a nullifier's shadow and never parks a
    nullifier in a delay slot; {!Hppa_verify.Hazards} machine-checks both
    invariants on the transformed code. *)

val writes : 'lbl t -> reg option
(** The general register written, if any (before the [r0]-discard rule). *)

val reads : 'lbl t -> reg list
(** General registers the instruction reads (for the delay-slot
    scheduler's dependence check and the dataflow passes of
    [Hppa_verify]).

    Contract: the list enumerates {e operand positions}, so a register
    appearing in two source positions appears {e twice} — [add r5, r5, t]
    reads [[r5; r5]], and [bv r0(rp)] reads [[r0; rp]]. Order follows the
    operand order of the instruction form. Membership-style consumers
    ([List.exists], set union) are unaffected; anything counting
    occurrences must use {!reads_distinct} instead. A unit test pins this
    behaviour. *)

val reads_distinct : 'lbl t -> reg list
(** {!reads} with duplicates removed, preserving first-occurrence order. *)

val set_n : bool -> 'lbl t -> 'lbl t
(** Set the [,n] completer; identity on non-branches. *)

val get_n : 'lbl t -> bool

val validate : 'lbl t -> (unit, string) result
(** Check immediate ranges and field bounds; the assembler and the code
    generators run this on every emitted instruction. *)

val mnemonic : 'lbl t -> string
val pp : (Format.formatter -> 'lbl -> unit) -> Format.formatter -> 'lbl t -> unit
(** Assembler syntax, e.g. [sh2add,o r5, r3, r4] or [comb,<< r1, r2, loop]. *)

val to_string : ('lbl -> string) -> 'lbl t -> string
(** The text {!pp} prints, built without [Format]. *)
