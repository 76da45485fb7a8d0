(** The hppa-serve wire protocol.

    Line-oriented, ASCII, one request and one reply per line. Requests:

    {v MUL <n>                 constant-multiply plan for the int32 n
      DIV <d>                 constant-divide plan (d < 0: signed plan)
      MULB <n...>             batch of 1..64 constant-multiply plans
      DIVB <d...>             batch of 1..64 constant-divide plans
      W64MUL <u|s> <x> <y>    64x64 multiply (128-bit product) of int64s
      W64DIV <u|s> <x> <y>    64/64 truncating divide
      W64REM <u|s> <x> <y>    64/64 remainder
      W64MULB <u|s> <x y...>  batch of 1..16 W64MUL operand pairs
      W64DIVB <u|s> <x y...>  batch of 1..16 W64DIV operand pairs
      W64REMB <u|s> <x y...>  batch of 1..16 W64REM operand pairs
      W64DIVL <xhi> <xlo> <y> 128/64 divide: unsigned (xhi:xlo) / y
      W64DIVLB <xhi xlo y..>  batch of 1..10 W64DIVL operand triples
      EVAL <entry> <args...>  run a millicode entry (up to 4 int32 args)
      STATS                   server counters and latency percentiles
      METRICS                 Prometheus text scrape of the registry
      PING                    liveness probe
      QUIT                    close this connection v}

    Replies are a single line starting with ["OK "] or ["ERR "] — with
    two exceptions. [METRICS] replies with multi-line Prometheus
    exposition text terminated by a line reading ["# EOF"]. The batch
    verbs reply with a header line ["OK <VERB>B k=<K>"] followed by
    exactly K lines, the i-th being byte-identical to the reply the
    corresponding scalar request would have produced (["OK ..."] or,
    e.g. for a zero divisor lane, ["ERR ..."]).

    The W64 verbs carry their run-time operands on the request line as
    signed decimal int64 dwords (the canonical form {!pp_request}
    prints; [0x..] literal syntax is also accepted on input), after a
    signedness token ([u] or [s]) on the verbs whose wire carries one.
    The batch forms take the dwords of one lane after another. A wrong
    operand count, a bad signedness, or any malformed operand rejects
    the whole batch (a partial batch would desynchronize the
    lane-indexed reply). Divide lanes that trap reply ["ERR trap ..."]
    without poisoning the batch.

    Every plan-producing verb is one {!kernel}: [MUL], [DIV], and one
    per row of {!Hppa_w64.kernels}, the table of served run-time-operand
    kernels. Parsing, error strings, verb naming, canonical rendering,
    cache keys, batch caps and batch-header recognition all read the
    row, so a new W64 verb is one row in that table — no code here.

    Parsing is total: {!parse} never raises, whatever the input bytes.
    Number arguments accept OCaml int literal syntax ([0x..] included)
    and must fit in 32 bits (64 for the W64 verbs). *)

module Word = Hppa_word.Word

(** A plan-producing kernel, indexed by the type of its operand lanes:
    an [int32] constant for [Kmul]/[Kdiv], the operand dwords of the
    row's {!Hppa_w64.kernel.args} for [Krun] — so no request can carry a
    lane of the wrong shape. [Krun] is a served run-time-operand kernel
    at one signedness ([signed] is always [false] on a row whose wire
    carries no tag). *)
type _ kernel =
  | Kmul : int32 kernel
  | Kdiv : int32 kernel
  | Krun : { run : Hppa_w64.kernel; signed : bool } -> int64 list kernel

(** A parsed request. Every plan-producing verb — scalar or batch,
    32- or 64-bit — is the single [Op] constructor; a scalar request is
    an [Op] with [batch = false] and exactly one lane. *)
type request =
  | Op : { kernel : 'lane kernel; batch : bool; lanes : 'lane list } -> request
  | Eval of string * Word.t list
  | Stats
  | Metrics
  | Ping
  | Quit

val mul : int32 -> request
(** [mul n] is the scalar [MUL n] request. *)

val div : int32 -> request
(** [div d] is the scalar [DIV d] request. *)

val run : Hppa_w64.kernel -> signed:bool -> int64 list -> request
(** [run k ~signed dwords] is the scalar request of row [k], e.g.
    [run Hppa_w64.mul ~signed:false [x; y]] is [W64MUL u x y]. *)

val verb : request -> string
(** The command word of a request (["MUL"], ["MULB"], ["EVAL"], ...) —
    used as the [verb] label on per-verb latency histograms. *)

val max_line_bytes : int
(** Longest accepted request line (1024); longer lines are rejected with
    an [oversized] error by {!Server.respond} and by the connection
    reader. *)

val max_batch_operands : int
(** Most operands one [MULB]/[DIVB] request may carry (64) — sized so a
    maximal batch still fits in {!max_line_bytes}. A W64 batch's cap is
    its row's {!Hppa_w64.kernel.batch_cap}. *)

val parse : string -> (request, string) result
(** Parse one request line (no trailing newline; a trailing ['\r'] is
    tolerated). [Error detail] is ["<category> <message>"], ready to be
    prefixed with ["ERR "]. Never raises. *)

val ok : string -> string
(** [ok payload] is ["OK " ^ payload]. *)

val err : string -> string
(** [err detail] is ["ERR " ^ detail], with newlines squashed so the
    reply stays one line. *)

val is_ok : string -> bool
val is_err : string -> bool

val is_batch_reply : string -> bool
(** Recognize a batch reply header ["OK <VERB>B k=..."] for any kernel
    in the dispatch table; such a header is followed by [k] lane
    lines. *)

val pp_request : Format.formatter -> request -> unit
(** Canonical rendering; for a scalar [Op] this is the normalized wire
    form and doubles as the shard-cache key. *)

val lane_key : 'lane kernel -> 'lane -> string
(** [lane_key kernel lane] is the normalized scalar wire form of one
    lane (e.g. ["MUL 625"]) — the cache key shared by the scalar verb
    and every batch lane carrying the same operand. *)

val excerpt : string -> string
(** Printable, length-capped excerpt of untrusted input for error
    messages. *)
