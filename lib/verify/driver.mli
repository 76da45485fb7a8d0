(** One-call front end over the analyses.

    For a resolved program and a set of entry labels, runs:
    + structure: entries resolve, and no reachable path has an
      unresolvable indirect branch or runs off the program image;
    + the delay-slot hazard lint ({!Hazards}), whole-image;
    + per entry: use/PSW-before-def, dead writes, result definedness
      ({!Defuse}) and the clobber check ({!Convention}).

    The certifiers are separate entry points since they need the
    expected algebraic claim: {!certify} takes the multiplier for the
    linear (§5) certifier, {!certify_division} the divisor claim for
    the reciprocal/divide-step/dispatch (§4, §7) certifiers. *)

val check :
  ?options:Cfg.options -> ?specs:Cfg.spec list -> ?pairs:Pairs.spec list ->
  entries:string list -> Program.resolved -> Findings.t list
(** [pairs] (default none) additionally runs the register-pair
    convention rule ({!Pairs}) over each listed pair spec. *)

val check_source :
  ?options:Cfg.options -> ?specs:Cfg.spec list -> ?pairs:Pairs.spec list ->
  entries:string list -> Program.source -> (Findings.t list, string) result
(** Resolve first; [Error] is the resolver's message. *)

val certify :
  ?options:Cfg.options -> Program.resolved -> entry:string ->
  multiplier:int32 -> Linear.verdict
(** {!Linear.certify} by label; [Unknown] if the label is absent. *)

val certify_findings :
  ?options:Cfg.options -> Program.resolved -> entry:string ->
  multiplier:int32 -> Linear.verdict * Findings.t list
(** {!certify} plus its findings rendering. Unlike {!certify} alone, an
    absent entry label is reported as a structured [Structure]
    (missing-entry) finding, not silently folded into the verdict
    message. *)

val certify_division :
  ?options:Cfg.options -> Program.resolved -> entry:string ->
  claim:Reciprocal.claim -> Reciprocal.verdict
(** Certify a constant-divisor routine against [claim]. Dispatches on
    the entry's shape: a reciprocal/power-of-two plan goes to
    {!Reciprocal.certify}; the general millicode (recognized by its
    divide-by-zero check) and the [ldi divisor; b divU]-style fallback
    wrappers (whose loaded constant must equal the claimed divisor) go
    to {!Divstep.certify}. [Unknown] if the label is absent. *)

val certify_body :
  canonical:Program.library -> Program.resolved -> entry:string ->
  Reciprocal.verdict
(** {!Equiv.certify}: the routine [entry] in the candidate image is
    instruction-for-instruction the routine of the same name in the
    [canonical] library's image — the certificate the W64 family
    carries, since its correctness rests on the differential suite
    pinning the canonical body rather than on a closed algebraic form.
    The type admits only a recorded library as the trusted side. *)

val certify_divstep :
  ?options:Cfg.options -> Program.resolved -> entry:string ->
  signed:bool -> want_rem:bool -> Reciprocal.verdict
(** {!Divstep.certify} by label: the variable-divisor millicode. *)

val certify_dispatch :
  ?options:Cfg.options -> Program.resolved -> entry:string ->
  signed:bool -> Reciprocal.verdict
(** Certify a §7 vectored small-divisor dispatcher: the bounds test
    must send every out-of-table divisor to a certified divide-step,
    the zero slot must trap, and each table arm is certified (via
    {!certify_division}) for its slot's divisor — proving the dispatch
    total over the declared divisor set, reported in the resulting
    {!Certificate.kind.Dispatch}. [options.blr_slots] must cover the
    table (the dispatcher's threshold, e.g. 20). *)
