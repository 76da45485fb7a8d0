(** Unified observability: a thread- and domain-safe metrics registry plus
    a low-overhead structured event tracer.

    This is the one vocabulary every layer of the system counts in. The
    machine's per-opcode dynamic statistics ([Hppa_machine.Stats]), the
    server's request metrics ([Hppa_server.Metrics]), the chain search's
    progress counters and the bench harness all publish into a {!Registry}
    and are exported through the same two serializers: Prometheus text
    exposition format ({!Export.prometheus}) and a deterministic JSON shape
    ({!Export.json}).

    Design constraints, in order:

    - {b correctness under parallelism}: counters and histogram buckets are
      [Atomic.t]; concurrent increments from any mix of domains and threads
      lose nothing. Registry mutation (interning a new metric) takes a
      mutex; the hot path (bumping an already-interned counter) does not.
    - {b determinism}: {!Registry.snapshot} orders metrics by name, then by
      rendered labels, so exports are byte-stable for a given set of
      recorded values regardless of registration order or worker count.
    - {b overhead}: a counter bump is one [Atomic.fetch_and_add]; an
      un-exercised registry costs nothing on the simulator's hot path. The
      tracer is bounded (ring buffer) and opt-in. *)

(** Monotonic integer counter. Exact under concurrent increment. *)
module Counter : sig
  type t

  val create : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val get : t -> int
  val reset : t -> unit
end

(** Instantaneous float value, last write wins. *)
module Gauge : sig
  type t

  val create : unit -> t
  val set : t -> float -> unit
  val get : t -> float
end

(** Log2-bucketed histogram with p50/p99 estimation.

    Bucket [0] holds observations [< 1.0]; bucket [i > 0] holds
    [[2^(i-1), 2^i)]. There are {!buckets} buckets; the last is an
    explicit overflow bucket covering [[2^(buckets-2), +Inf)] with
    {!bucket_upper} = [infinity]. Percentiles report the upper bound of
    the bucket containing the requested rank — an overestimate of at
    most 2x for in-range observations, and honestly [infinity] when the
    rank falls in the overflow bucket (rather than a fake finite value).
    This keeps recording allocation-free and latency monitoring
    truthful at the tail. *)
module Histogram : sig
  type t

  val buckets : int
  (** Number of log2 buckets (40), overflow bucket included. *)

  val create : unit -> t
  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float
  val bucket_counts : t -> int array
  val bucket_upper : int -> float
  (** Upper bound of bucket [i]: [1.0] for bucket 0, [infinity] for the
      overflow bucket [buckets - 1], else [2.0 ** i]. *)

  val percentile : t -> float -> float
  (** [percentile h q] for [q] in [0..100]. [0.0] when empty;
      [infinity] when the rank lands in the overflow bucket. *)

  val reset : t -> unit
end

(** A point-in-time value of one registered metric. *)
type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of { count : int; sum : float; buckets : (float * int) array }
      (** [buckets] are (upper_bound, cumulative_count) pairs for every
          non-empty bucket, in increasing bound order. *)

type sample = {
  name : string;
  labels : (string * string) list;  (** sorted by label name *)
  help : string;
  value : value;
}

(** Named collection of metrics. Get-or-create accessors intern by
    (name, labels); asking for an existing metric with a different kind
    raises [Invalid_argument]. *)
module Registry : sig
  type t

  val create : unit -> t

  val counter :
    t -> ?help:string -> ?labels:(string * string) list -> string -> Counter.t

  val gauge :
    t -> ?help:string -> ?labels:(string * string) list -> string -> Gauge.t

  val histogram :
    t ->
    ?help:string ->
    ?labels:(string * string) list ->
    string ->
    Histogram.t

  val fn_counter :
    t ->
    ?help:string ->
    ?labels:(string * string) list ->
    string ->
    (unit -> int) ->
    unit
  (** Register a counter whose value is sampled by calling the function at
      snapshot time (e.g. cache hits owned by another module). *)

  val fn_gauge :
    t ->
    ?help:string ->
    ?labels:(string * string) list ->
    string ->
    (unit -> float) ->
    unit

  val register_counter :
    t ->
    ?help:string ->
    ?labels:(string * string) list ->
    string ->
    Counter.t ->
    unit
  (** Attach an externally created counter. If the (name, labels) key is
      already bound, the new registration replaces it (last wins) — callers
      that build successive machines against one registry observe the most
      recent one. *)

  val register_histogram :
    t ->
    ?help:string ->
    ?labels:(string * string) list ->
    string ->
    Histogram.t ->
    unit

  val snapshot : t -> sample list
  (** Deterministic: sorted by (name, rendered labels); fn-backed metrics
      are sampled at this moment. *)
end

(** The one JSON value of the system: every JSON document it writes
    (the [hppa-obs/1] export, trace lines, the load generator's report,
    the autotune plan store) is built as a {!Json.t} and printed by
    {!Json.to_string}, and the plan store is read back by {!Json.parse}. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list  (** fields in print order *)

  val to_string : t -> string
  (** Compact: no whitespace between tokens. Strings escape the double
      quote, the backslash, newline and tab by name and the other bytes
      below 0x20 as [\u00XX]; all other bytes pass through. A float
      prints as ["%.1f"] when integral and below 1e15 in magnitude, else
      as ["%g"] (six significant digits); JSON has no literal for
      non-finite values, so they print as the quoted strings ["+Inf"],
      ["-Inf"] and ["NaN"]. *)

  val parse : string -> (t, string) result
  (** One JSON document, surrounding whitespace allowed. A number
      without fraction or exponent that fits an [int] is an [Int]; any
      other number is a [Float], so a reader can insist on integers.
      A [\uXXXX] escape decodes to UTF-8; surrogate halves are refused.
      The error names the byte offset. [parse (to_string v) = v] for every
      [v] whose floats are finite and print exactly. *)

  val member : string -> t -> t option
  (** [member key (Obj fields)] is the first field named [key]; [None]
      for a missing field or a value that is not an object. *)
end

(** Serializers over {!Registry.snapshot}. *)
module Export : sig
  val prometheus : sample list -> string
  (** Prometheus text exposition format. [# HELP]/[# TYPE] emitted once
      per metric family; histograms expand to [_bucket{le="..."}] series
      (cumulative, non-empty finite buckets plus exactly one [+Inf] line
      that also carries the overflow bucket), [_sum] and [_count]. *)

  val json : sample list -> string
  (** One-line JSON: [{"schema":"hppa-obs/1","metrics":[...]}] with
      metrics in snapshot order. Non-finite values (the overflow
      bucket's bound, a saturated percentile) are emitted as the quoted
      strings ["+Inf"], ["-Inf"], ["NaN"] so the document stays valid
      JSON. *)

  val parse_prometheus :
    string -> ((string * (string * string) list * float) list, string) result
  (** Strict-enough parser for our own exposition output (used by the
      [hppa-serve metrics] scrape check and tests): returns every sample
      line as (name, labels, value); accepts [#] comment lines and a
      trailing [# EOF]. *)

  val find :
    (string * (string * string) list * float) list ->
    string ->
    float option
  (** First sample with the given metric name, ignoring labels. *)
end

(** Bounded structured event tracer. [emit] appends to a ring buffer of
    the most recent [capacity] events; older events are dropped (counted,
    never blocking). Thread- and domain-safe; intended for opt-in tracing
    so a mutex per event is acceptable. *)
module Trace : sig
  type field = Json.t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of Json.t list
    | Obj of (string * Json.t) list

  type event = { seq : int; name : string; fields : (string * field) list }

  type t

  val create : capacity:int -> t
  (** [capacity] must be positive. *)

  val emit : t -> string -> (string * field) list -> unit
  val emitted : t -> int
  (** Total events ever emitted. *)

  val dropped : t -> int
  (** Events overwritten by ring wrap-around. *)

  val events : t -> event list
  (** Retained events, oldest first. *)

  val to_jsonl : t -> string
  (** One JSON object per line: [{"seq":N,"ev":"name",...fields}]. *)

  val write_jsonl : t -> out_channel -> unit
end
