(** Deterministic plan rendering for the service.

    Each function turns one request into the reply {e payload} (the text
    after ["OK "]) or an error detail (the text after ["ERR "]). The
    renderings are pure functions of their arguments — no timestamps, no
    addresses, no cache or worker identity — which is what makes the
    plan cache transparent and the worker pool size unobservable
    (the "identical plan bytes" guarantee).

    MUL and DIV dispatch through the kernel-strategy layer
    ({!Hppa_plan.Selector}): alongside the payload they return an
    {!artifact} recording what the selector chose, and when [obs] is the
    server's registry the per-strategy [hppa_plan_*] counters become
    visible in the [METRICS] scrape. The payload itself is rendered from
    the planner record carried by the chosen emission and stays
    byte-identical to the pre-selector renderings. *)

(** What the selector decided for one cached plan: strategy name, entry
    label, static size, context score and the content address (MD5 of
    the encoded binary) when the emission links. Under certified-only
    serving ([require_certified]) the winner's proof rides along as
    [cert_kind] ({!Hppa_verify.Certificate.kind_label}) and
    [cert_digest] (MD5 of the certificate transcript). *)
type artifact = {
  strategy : string;
  entry : string;
  static_instructions : int;
  score : int;
  digest : string option;
  cert_kind : string option;
  cert_digest : string option;
}

val render_artifact : artifact -> string
(** One-line [key=value] rendering (used by the final server report). *)

val mul :
  ?obs:Hppa_obs.Obs.Registry.t ->
  ?require_certified:bool ->
  int32 ->
  (string * artifact, string) result
(** Addition-chain multiply plan: chain steps, emitted instructions and
    the static cycle count, via {!Hppa.Mul_const.plan}. With
    [~require_certified:true] the selector only picks a strategy whose
    emission certifies ({!Hppa_plan.Strategy.certify}); the payload
    bytes are unchanged either way. *)

val div :
  ?obs:Hppa_obs.Obs.Registry.t ->
  ?require_certified:bool ->
  int32 ->
  (string * artifact, string) result
(** Constant-divide plan via {!Hppa.Div_const}: [d > 0] plans the
    unsigned routine, [d < 0] the signed one; [d = 0] is an error. The
    payload names the strategy (power-of-two shift, derived reciprocal
    with its magic parameters, even split, or general-divide fallback).
    [require_certified] as in {!mul}. *)

val run :
  ?obs:Hppa_obs.Obs.Registry.t ->
  ?require_certified:bool ->
  Hppa_machine.Machine.t ->
  fuel:int ->
  Hppa_w64.kernel ->
  signed:bool ->
  int64 list list ->
  (string * artifact, string) result list
(** Lanes of one served run-time-operand kernel ({!Hppa_w64.kernels}),
    each lane the row's operand dwords: one selector choice (the row's
    [w64_*_millicode] strategy), then one run of the row's entry on the
    given (worker-private, reset first) machine for a single lane, or
    one {!Hppa_machine.Machine.Batch} SoA dispatch over two or more —
    per-lane batch cycles equal the scalar engine's, so each lane's
    reply is byte-identical to the single-lane one. Each reply is
    {!render}ed. Under [require_certified] the plan must carry a
    body-equivalence certificate or every lane is refused. *)

val render :
  fuel:int ->
  Hppa_w64.kernel ->
  signed:bool ->
  int64 list ->
  Hppa_w64.outcome ->
  int ->
  (string, string) result
(** [render ~fuel k ~signed dwords outcome cycles] is the reply payload
    of one run: the verb, [signed=] on a tagged row, the named operand
    and result dwords, the dynamic cycle count and the entry. Divide
    traps (zero divisor, signed [-2{^63} / -1], a 128/64 quotient that
    does not fit a dword) and fuel exhaustion are error details. *)

val w64 :
  ?obs:Hppa_obs.Obs.Registry.t ->
  ?require_certified:bool ->
  Hppa_machine.Machine.t ->
  fuel:int ->
  Hppa_w64.op ->
  signed:bool ->
  int64 ->
  int64 ->
  (string * artifact, string) result
(** One lane of {!run} on the row {!Hppa_w64.of_op}[ op]. *)

val divl :
  ?obs:Hppa_obs.Obs.Registry.t ->
  ?require_certified:bool ->
  Hppa_machine.Machine.t ->
  fuel:int ->
  xhi:int64 ->
  xlo:int64 ->
  int64 ->
  (string * artifact, string) result
(** One lane of {!run} on {!Hppa_w64.divl}: the unsigned 128-bit
    dividend [(xhi:xlo)] divided by [y]. *)

val eval :
  Hppa_machine.Machine.t ->
  fuel:int ->
  string ->
  Hppa_word.Word.t list ->
  (string, string) result
(** Run a public millicode entry on the given (worker-private) machine
    with a fuel bound, returning results and the dynamic cycle count.
    The machine is reset first, so replies are independent of request
    history. Traps and fuel exhaustion are error replies, not
    exceptions. *)

val render_source : Program.source -> string
(** One-line rendering of an assembly routine: items separated by [" | "],
    labels suffixed with [":"]. Exposed for the tests. *)
