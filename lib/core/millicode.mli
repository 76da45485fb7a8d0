(** The millicode runtime library.

    HP Precision has no multiply or divide instructions; compiled code
    reaches these operations through branch-and-link calls into a small
    resident library — the millicode. This module assembles the whole
    library built in this reproduction:

    - multiplication ladder: [mul_naive], [mul_naive_early], [mul_nibble],
      [mul_switch], [mul_final] (alias [mulI]) and the trapping [mulo]
      (alias [muloI]);
    - extended multiplication: [mulU64] and [mulI64] (the full 64-bit
      product, built from four half-word standard multiplies);
    - division: [divU], [divI], [remU], [remI], the 64/32 [divU64], and
      the small-divisor dispatchers [divU_small], [divI_small] with their
      constant-divisor routines.

    Calling convention: operands in [arg0]/[arg1], results in
    [ret0] (and [ret1] for the divide remainder), return via [bv r0(rp)]
    — or [mrp] for millicode-to-millicode calls.

    {!resolved} and {!machine} are conveniences for tests, benches and
    examples that want a ready-to-run image. *)

val source : Program.source

val library : unit -> Program.library
(** The library resolved on its own: once per process, and recorded by
    {!Program.library}, so that every {!Program.resolve} of a source
    ending in {!source} itself (such as [Program.concat [src; source]])
    resolves only what comes before it. Its image is the one every such
    link refers to. *)

val link : Program.source -> Program.resolved
(** [link src] is [Program.resolve_exn (Program.concat [src; source])]:
    [src] resolved, followed by a reference to {!library}'s image rather
    than a copy of it. *)

val resolved : unit -> Program.resolved
(** [link []]: {!library}'s own image, the same value on every call. *)

val machine :
  ?config:Hppa_machine.Machine.Config.t -> unit -> Hppa_machine.Machine.t
(** A fresh machine loaded with the library, executing under [config]
    (default {!Hppa_machine.Machine.Config.default}). *)

val scheduled_source : unit -> Program.source
(** The library transformed by {!Hppa_isa.Delay.schedule} for delay-slot
    machines. *)

val scheduled_machine : unit -> Hppa_machine.Machine.t
(** A fresh delay-slot machine loaded with the scheduled library — the
    closest model to the hardware HP measured. *)

val entries : string list
(** Every public entry point. *)

val mulI : string
(** The production multiply entry (the final algorithm). *)

val muloI : string
(** The trapping multiply entry. *)

val conventions : Hppa_verify.Cfg.spec list
(** The declared register interface of every entry in {!entries}, as
    checked by {!Hppa_verify}. *)

val pair_conventions : Hppa_verify.Pairs.spec list
(** The register-pair (64-bit dword) view of the W64 family's
    interface, checked by the {!Hppa_verify.Pairs} rule inside
    {!lint}. *)

val lint : ?scheduled:bool -> unit -> Hppa_verify.Findings.t list
(** Run the full static check suite ({!Hppa_verify.Driver.check}) over
    the library — [~scheduled:true] checks the delay-slot-scheduled image
    in delay-slot mode. The library is lint-clean: both calls return [[]]
    (a test pins this). *)
