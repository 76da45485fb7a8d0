(** High-level interface to the double-word (W64) millicode family.

    The paper's routines operate on single 32-bit words; this library's
    W64 family ({!Hppa.Mul_w64}, {!Hppa.Div_w64}, {!Hppa.Div_u128}) lifts
    them to 64-bit operands passed as (hi:lo) register pairs — X in
    (arg0:arg1), Y in (arg2:arg3). This module holds {!kernels}, the one
    table of the served run-time-operand kernels: which entry each verb
    runs, how its operand dwords are packed into registers and its
    result dwords unpacked, its bit-exact two-word OCaml reference, and
    its batch cap. The wire protocol, the plan renderer, the server and
    the selector's W64 millicode strategies all read this table. *)

type op = Mul | Div | Rem

(** {1 Register pairs} *)

val hi32 : int64 -> Hppa_word.Word.t
val lo32 : int64 -> Hppa_word.Word.t

val join : Hppa_word.Word.t -> Hppa_word.Word.t -> int64
(** [join hi lo] reassembles a dword from a register pair. *)

(** {1 Outcomes} *)

(** Every entry leaves two architectural result dwords: [ret] in
    (ret0:ret1) — the product's high dword, the quotient, or the
    remainder — and [arg] in (arg0:arg1) — the product's low dword for
    the multiplies, the remainder for the divide/rem entries. *)
type outcome =
  | Value of { ret : int64; arg : int64 }
  | Trap of Hppa_machine.Trap.t
  | Fuel

val outcome_equal : outcome -> outcome -> bool
val pp_outcome : Format.formatter -> outcome -> unit

(** {1 The kernel table} *)

(** One served run-time-operand kernel: a wire verb and everything the
    layers above need to parse, run, check and render it. *)
type kernel = {
  verb : string;
      (** scalar wire verb (["W64MUL"]); the batch verb appends ["B"] *)
  entries : string * string;
      (** the millicode entry run for an unsigned and for a signed
          request *)
  tagged : bool;
      (** whether the wire carries a [u]/[s] signedness tag; an untagged
          kernel is always unsigned *)
  args : string list;
      (** names of the operand dwords, in wire and register order (their
          count is the dwords a lane takes) *)
  takes : string;
      (** what one scalar request takes, for the arity error ("a
          signedness and two integers") *)
  pack : int64 list -> Hppa_word.Word.t list;
      (** operand dwords to the entry's argument words *)
  unpack : ret:int64 -> arg:int64 -> (string * int64) list;
      (** the named result dwords a reply reports *)
  reference : signed:bool -> int64 list -> outcome;
      (** the two-word OCaml model of the entry, traps included; raises
          [Invalid_argument] on a wrong operand count *)
  batch_cap : int;
      (** most lanes one batch request may carry, sized so a maximal
          batch fits a 1024-byte request line *)
}

val mul : kernel
(** [W64MUL]: 64x64 multiply, [mulU128]/[mulI128], the 128-bit product
    as [hi]/[lo]. *)

val div : kernel
(** [W64DIV]: truncating 64/64 divide, [divU64w]/[divI64w], [q] and
    [r]. A zero divisor breaks with
    {!Hppa_machine.Trap.divide_by_zero_code}; signed [-2{^63} / -1]
    with {!Hppa.Div_ext.overflow_break_code}. *)

val rem : kernel
(** [W64REM]: the remainder, [remU64w]/[remI64w], traps as {!div}. *)

val divl : kernel
(** [W64DIVL]: the untagged 128/64 divide [divU128by64] of the dividend
    [(xhi:xlo)] by [y], which rides in (ret0:ret1) as the fifth and
    sixth argument words. A zero divisor breaks with
    {!Hppa_machine.Trap.divide_by_zero_code} and a dividend high dword
    [>=] the divisor (unrepresentable quotient) with
    {!Hppa.Div_ext.overflow_break_code}. *)

val kernels : kernel list
(** The table: [[mul; div; rem; divl]]. *)

val runs : (kernel * bool) list
(** Every (kernel, signed) pair the wire can name, in table order:
    both signednesses of a tagged kernel, unsigned only otherwise. *)

val kernel_entry : kernel -> signed:bool -> string
(** The entry a kernel runs for the given signedness. *)

val of_op : op -> kernel
(** The two-operand kernel of an operation. *)

val entry : signed:bool -> op -> string
(** [kernel_entry (of_op op) ~signed]: [mulU128]/[mulI128],
    [divU64w]/[divI64w], [remU64w]/[remI64w]. *)

val operands : int64 -> int64 -> Hppa_word.Word.t list
(** [operands x y] is the four-word argument list
    [[hi32 x; lo32 x; hi32 y; lo32 y]] of the two-operand kernels. *)

val reference : string -> int64 -> int64 -> outcome
(** The two-operand model of the named entry; raises [Invalid_argument]
    off the two-operand kernels. *)

val divl_entry : string
(** ["divU128by64"], the entry of {!divl}. *)

val operands_divl : xhi:int64 -> xlo:int64 -> int64 -> Hppa_word.Word.t list
(** The six-word argument list of {!divl}. *)

val reference_divl : xhi:int64 -> xlo:int64 -> int64 -> outcome
(** {!divl}'s model over {!Hppa_word.U128}: quotient dword in [ret],
    remainder in [arg]. *)

(** {1 Execution} *)

val call :
  ?fuel:int ->
  Hppa_machine.Machine.t ->
  kernel ->
  signed:bool ->
  int64 list ->
  outcome
(** Pack the operand dwords, call the kernel's entry, decode the result
    dwords. *)

val call_cycles :
  ?fuel:int ->
  Hppa_machine.Machine.t ->
  kernel ->
  signed:bool ->
  int64 list ->
  outcome * int
(** {!call} plus the cycle count of the call. *)

val batch_outcome : Hppa_machine.Machine.Batch.t -> lane:int -> outcome
(** Decode one lane of a batched dispatch. *)
