(** Execution statistics.

    The paper's central metric is the dynamic count of single-cycle
    instructions along the executed path; {!cycles} is that count, with
    nullified instructions (skipped by [COMCLR]) costing their cycle as on
    the real pipeline.

    Every quantity is an {!Hppa_obs.Obs.Counter.t} underneath: attach a
    registry at {!create} time and the per-opcode histogram, trap counts
    and totals are published as [hppa_sim_*] metrics, so [STATS]-style
    textual output and Prometheus/JSON exports read the same atomics. *)

type t

val create :
  ?registry:Hppa_obs.Obs.Registry.t ->
  ?labels:(string * string) list ->
  unit ->
  t
(** [create ~registry ~labels ()] publishes this machine's counters into
    [registry] as [hppa_sim_executed_total], [hppa_sim_nullified_total],
    [hppa_sim_branches_taken_total], [hppa_sim_insns_total{mnemonic=...}]
    and [hppa_sim_traps_total{trap=...}], each carrying [labels]. Counters
    are always owned by this value — registration only exposes them. *)

val reset : t -> unit

val record : t -> nullified:bool -> mnemonic:string -> unit
val record_branch_taken : t -> unit

val record_trap : t -> string -> unit
(** Count one trap under its {!Trap.name} label. *)

(** {2 Settling a translated run}

    The reference interpreter calls {!record} once per instruction. The
    translators ({!Engine}, {!Engine_batch}) instead count per mnemonic
    into a plain [int array] while they run and settle once on exit, so
    the histogram matches the interpreter's exactly at a fraction of the
    cost. *)

type tally
(** One translation's per-mnemonic run counts, bound to one [t]: the
    mnemonics it has interned so far, and each one's histogram counter,
    looked up once per translation. *)

val tally : t -> capacity:int -> tally
(** [tally stats ~capacity] for a translation of at most [capacity]
    distinct mnemonics (an image's length bounds them), none interned
    yet. *)

val intern : tally -> string -> int
(** [intern ty mnemonic] is the mnemonic's dense id, assigned on its
    first intern. Translators call it as they compile each instruction,
    so an instruction that is never translated costs no mnemonic string
    and no hash; a closure then counts its executions into slot [id] of
    {!counts}.
    @raise Invalid_argument past [capacity] distinct mnemonics. *)

val counts : tally -> int array
(** The array the translated code increments: slot [id] counts the
    executions of the mnemonic interned as [id] since the last
    {!settle}. Its length is the tally's capacity, fixed, so closures
    may keep it. *)

val settle : tally -> nullified:int -> taken:int -> unit
(** Publish one run: walk the ids interned so far, add each nonzero
    count to its mnemonic's counter and their total to the executed
    count once, add [nullified] and [taken] to theirs; then zero the
    counts. A mnemonic's counter is looked up (string-keyed) on the
    first settle in which it ran and kept after, so
    [hppa_sim_insns_total{mnemonic=...}] is still registered only once
    it is nonzero. {!reset} zeroes counters in place, so a tally stays
    valid across it. Before the tally, each run did one string-keyed
    lookup per mnemonic it used, which cost the default path 185–250 ns
    of a 32-bit millicode call (about 40% of [mulI]'s) and 410–1140 ns
    of a 64-bit one. *)

val cycles : t -> int
(** Executed + nullified instructions. *)

val executed : t -> int
val nullified : t -> int
val branches_taken : t -> int

val by_mnemonic : t -> (string * int) list
(** Executed-instruction histogram, most frequent first; zero-count
    entries are omitted. *)

val by_trap : t -> (string * int) list
(** Trap counts by {!Trap.name}, alphabetical. *)

val diff : before:t -> after:t -> int
(** Cycle delta; both arguments may be the same mutable value snapshotted
    with {!snapshot}. *)

val snapshot : t -> t
(** Detached copy: fresh counters holding the current values, not
    published to any registry. *)

val pp : Format.formatter -> t -> unit
