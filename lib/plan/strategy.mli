(** The unified kernel-strategy interface.

    The paper's engineering move is {e choosing among} multiply/divide
    code sequences by operand class (§5 chains for constants, §6 the
    variable-multiply ladder, §7 reciprocal vs. millicode fallback for
    divisors). This module gives every such family one algebraic shape: a
    named strategy declares the requests it applies to, a cost under a
    selection context, and an [emit] that produces Precision code with a
    declared entry point and a {!Hppa_verify.Cfg.spec} calling
    convention — so the compiler, the plan server, the CLIs and the bench
    all dispatch through the same registry instead of hard-wiring
    planner calls at each site.

    The existing planners ({!Hppa.Mul_const}, {!Hppa.Div_const},
    {!Hppa.Div_small}, the millicode variable entries and the
    {!Hppa_baselines} booth/shift-subtract models) are wrapped, not
    replaced: each registered strategy defers to its module. *)

(** {1 Requests} *)

type op = Mul | Div | Rem | Divl
(** [Divl] is the three-operand 128/64 divide ([divU128by64]): a
    double-word-pair dividend and a dword divisor, quotient and
    remainder dwords out. W64-only, always unsigned. *)

type operand = Constant of int32 | Constant64 of int64 | Variable
(** [Constant64] is a double-word compile-time constant; only valid at
    {!W64} width. *)

type signedness = Unsigned | Signed

type width = W32 | W64
(** Operand width: the paper's single-word operations, or the
    double-word (64-bit) family built over them — operands and results
    as (hi:lo) register pairs. *)

type request = {
  op : op;
  operand : operand;
  signedness : signedness;
  trap_overflow : bool;
      (** require a trap on signed overflow (the §5 monotonic-chain /
          [mulo] discipline); divides ignore it *)
  width : width;
}

val mul_const : ?trap_overflow:bool -> int32 -> request
(** Signed multiply by a compile-time constant. *)

val mul_var : ?trap_overflow:bool -> unit -> request
val div_const : signedness -> int32 -> request
val div_var : signedness -> request
val rem_const : signedness -> int32 -> request
val rem_var : signedness -> request

val w64_mul : signedness -> request
val w64_div : signedness -> request
val w64_rem : signedness -> request
(** The double-word family; always [Variable] (pairs arrive at run
    time), never trapping on overflow (the 128-bit product cannot
    overflow; the divides trap on [-2^63 / -1] regardless). *)

val w64_divl : request
(** The 128/64 divide: dividend dword pair and divisor dword at run
    time, unsigned. *)

val w64_kernel : op -> Hppa_w64.kernel
(** The served kernel of {!Hppa_w64.kernels} a run-time-operand W64
    request names ([Divl] is {!Hppa_w64.divl}); the W64 millicode
    strategies call its entry. *)

val w64_run : Hppa_w64.kernel -> signedness -> request
(** The run-time-operand request a served kernel plans through: the
    inverse of {!w64_kernel}. *)

val w64_mul_const : ?trap_overflow:bool -> int64 -> request
val w64_div_const : signedness -> int64 -> request
val w64_rem_const : signedness -> int64 -> request
(** Double-word operations against a 64-bit compile-time constant
    ([Constant64]); the variable pair arrives in (arg0:arg1). *)

val pp_request : Format.formatter -> request -> unit

val request_id : request -> string
(** Compact stable identifier, safe for metric labels and store keys:
    ["mul.c625.s"], ["div.var.u"], ["mul.c-7.s.trap"], ["mul.var.u.w64"],
    ["mul.c15.s.w64"], ["divl.var.u.w64"], ... *)

val request_of_string : string -> (request, string) result
(** Parse the CLI plan-request syntax: an operation ([mul], [mulo],
    [divu], [divi], [remu], [remi], or the 64-bit [w64mulu], [w64muli],
    [w64divu], [w64divi], [w64remu], [w64remi], [w64divl]) followed by a
    constant or [x]/[var] for a run-time operand — e.g. ["mul 625"],
    ["divu x"], ["w64divu 10"], ["w64divl x"]. W32 forms take 32-bit
    constants, w64 forms take 64-bit constants; [w64divl] accepts only
    [x]. *)

(** {1 Selection contexts}

    Costs are context-dependent: inline expansion inside compiled code
    competes against a branch-and-link call (so chains are capped at the
    compiler's inline threshold), while a standalone routine always
    exists and is scored by its static length. *)

type purpose =
  | Standalone  (** emit a self-contained routine (server, CLIs, bench) *)
  | Inline_expansion  (** expand at a call site inside compiled code *)

type context = {
  purpose : purpose;
  inline_mul_threshold : int;
      (** longest chain worth inlining under {!Inline_expansion} *)
  small_divisor_dispatch : bool;
      (** operand model says variable divisors are usually < 20, making
          the §7 vectored dispatch worth its overhead *)
  millicode_mul_cycles : int;
      (** modelled average of the production [mulI] (paper: < 20) *)
  millicode_div_cycles : int;
      (** modelled average of the general [divU]/[divI] (paper: ~80) *)
}

val standalone : context
val compiler : ?small_divisor_dispatch:bool -> unit -> context
(** The compiler's context: [Inline_expansion] with
    [inline_mul_threshold = Hppa_compiler.Lower.inline_mul_threshold]'s
    value (6). *)

(** {1 Emissions} *)

(** What the emitted code wraps, kept so consumers can render the
    underlying planner records (the server's reply payloads are built
    from these and must stay byte-identical). *)
type detail =
  | Mul_plan of Hppa.Mul_const.plan
  | Div_plan of Hppa.Div_const.plan
  | Millicode of string  (** tail-call wrapper around this library entry *)
  | Pair_chain of Hppa.Chain.t
      (** double-word addition chain over register pairs (W64 constant
          multiply), emitted by {!Hppa.Chain_codegen.body_at_pair} *)

type emission = {
  entry : string;
  source : Program.source;
  spec : Hppa_verify.Cfg.spec;
      (** declared convention of [entry]: dividend/multiplicand in
          [arg0] (variable second operand in [arg1]), results per spec *)
  deps : Program.source list;
      (** compilation units the source must be linked with (e.g.
          {!Hppa.Div_gen.source} for fallback divides) *)
  callee_specs : Hppa_verify.Cfg.spec list;
      (** conventions of entries the emission may (tail-)call *)
  static_instructions : int;
  detail : detail;
}

val link : emission -> (Program.resolved, string) result
(** Resolve the emission concatenated with its [deps]. Each of [deps]
    is recorded as a {!Program.library}, so the link resolves the
    emission's own code and splices the last dependency's image after
    it. *)

val verify : emission -> (unit, string) result
(** {!Hppa_verify.Driver.check} over the linked program for the declared
    entry and convention; [Error] carries the findings, so [Ok ()] means
    lint-clean. *)

val encoded : emission -> (int32 array, string) result
(** Binary encoding of the linked program, checked to round-trip
    ({!Hppa_isa.Encode.round_trip}). *)

val digest : emission -> (string, string) result
(** Content address: MD5 hex of the encoded binary — the bytes of
    {!encoded}, with the same errors when each of [deps] resolves on its
    own. A dependency's words are its library's
    {!Program.library_words}, encoded and checked once per process, so
    a call encodes only the emission's own instructions. *)

val certify : request -> emission -> (Hppa_verify.Certificate.t, string) result
(** Discharge the proof obligation matching the emission's shape:
    constant multiplies through the linear-form certifier
    ({!Hppa_verify.Linear}), constant divides/remainders through the
    reciprocal certifier (with divide-step and [ldi; b] wrapper
    dispatch, {!Hppa_verify.Driver.certify_division}), variable divides
    through the divide-step schema matcher on the millicode target, the
    small-divisor dispatchers through the vectored-dispatch totality
    proof, and every W64 millicode emission through the body-equivalence
    certifier ({!Hppa_verify.Equiv}) against the millicode library
    ([Millicode.library ()]). [Error] carries the refutation or the reason the emission is
    outside every certifier's domain (e.g. the variable multiply
    ladder, or a W64 {!Pair_chain} — under certified-only selection the
    millicode call-through wins for those requests). *)

(** {1 Strategies} *)

type kind =
  | Emits  (** produces runnable Precision code *)
  | Modelled
      (** a §2 baseline with a cost model only (never selected; appears
          in candidate tables and autotune measurements) *)

type cost = {
  score : int;
      (** static instructions for emitted routines, modelled average
          cycles for call-through strategies — the units the paper
          itself compares when it breaks even chains against [mulI] *)
  note : string;  (** where the number comes from *)
}

type t = {
  name : string;
  description : string;
  kind : kind;
  applies : request -> bool;  (** shape filter: op/operand/signedness *)
  cost : context -> request -> (cost, string) result;
      (** [Error reason] = applicable in shape but rejected in this
          context (e.g. chain longer than the inline threshold) *)
  emit : request -> (emission, string) result;
  model : (request -> Hppa_word.Word.t -> Hppa_word.Word.t -> int option) option;
      (** modelled cycle count for one operand pair ([Modelled]
          baselines); [None] when undefined (e.g. division by zero) *)
}

val all : t list
(** The registry, in tie-break order (earlier wins at equal score). *)

val find : string -> t option

val div_const_plan : request -> int32 -> Hppa.Div_const.plan
(** The {!Hppa.Div_const} plan for a constant [Div] or [Rem] request by
    the given divisor, as the [div_const] strategy emits it. Each domain
    keeps the last one it made, so the strategy's cost, its emission and
    a reply rendered from the same request plan the divisor once.
    @raise Invalid_argument for a [Mul] or [Divl] request. *)
