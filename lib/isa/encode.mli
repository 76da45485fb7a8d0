(** Binary instruction encoding.

    Each instruction packs into one 32-bit word with a 6-bit major opcode,
    documented field by field in the implementation. The layout is this
    project's own (simpler than the historical PA-RISC bit assignments, which
    the paper does not depend on), but it enforces the same field widths the
    architecture grants: 14-bit [ADDI]/[LDO] immediates, 11-bit [SUBI], 5-bit
    [COMIB]/[ADDIB] immediates, 12-bit PC-relative conditional-branch
    displacements and 17-bit unconditional ones.

    Branch targets are stored PC-relative, so encoding operates on resolved
    instructions at a known address. *)

val encode : addr:int -> int Insn.t -> (int32, string) result
(** Fails when a field exceeds its width (e.g. a branch out of displacement
    range); such programs would not assemble on the real machine either. *)

val decode : addr:int -> int32 -> (int Insn.t, string) result

val encode_fetch : int -> (int -> int Insn.t) -> (int32 array, string) result
(** [encode_fetch n fetch] encodes [fetch 0 .. fetch (n - 1)] placed
    from address 0, e.g. an image through [Program.length]/[insn]. *)

val decode_program : int32 array -> (int Insn.t array, string) result

val round_trip : int -> (int -> int Insn.t) -> (int32 array, string) result
(** {!encode_fetch}, checked to decode back to the same instructions.
    Fails with the encoder's error, ["decode: "] followed by the
    decoder's, or ["encode/decode round-trip mismatch"]. *)

val le_bytes : int32 array -> string
(** The words as little-endian bytes, four to a word. *)
