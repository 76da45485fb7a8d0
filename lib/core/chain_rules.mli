(** Rule-based search for multiply-by-constant chains (§5).

    The paper's rule program derives a chain for [n] from chains for smaller
    numbers: one more step reaches [2^k*n], [3n], [5n], [9n], [n-1], [n+1],
    [n+2], [n+4], [n+8], [2n+1], [4n+1] and [8n+1]; two more reach
    [(2^k - 1)n] and [(2^k + 1)n]; and chains compose over factorisations
    ([cost (p*q) <= cost p + cost q]). This module implements those rules as
    a shortest-path relaxation over target values seeded with the exact
    exhaustive search to depth 3 (the value-level rules cannot express
    chains that reuse an intermediate twice — the paper's 59 — so, like
    the paper, the program "remembers" those cases: the table keeps the
    chains themselves, found by one {!Chain_search.first_chains} walk).
    The result is fast and — as the paper reports for its own rule
    program — minimal for the large
    majority of constants, with every observed exception a single step
    from optimal ({!Chain_stats} quantifies this against exhaustive
    search).

    Three rule sets are provided. [Fast] uses every rule. [Monotonic]
    restricts to rules that keep the chain strictly increasing and built
    from ADD/SHmADD only, so the generated code detects overflow (§5
    "Overflow"); such chains are sometimes one step longer (the paper's
    example: 31 goes from 2 to 3 steps). [No_temp] restricts to steps that
    read only the previous element, the operand and zero — chains that
    compile without a temporary register (§5 "Register Use"); comparing its
    costs with exhaustive lengths identifies the constants that {e must}
    spend a temporary (the paper: 59, 87 and 94 below 100). *)

type mode = Fast | Monotonic | No_temp

type table
(** Costs and reconstruction data for every target in [0 .. limit]. *)

val table : mode -> limit:int -> table
val table_limit : table -> int

val cost : table -> int -> int option
(** Chain length for a target in range; [None] when the rule set cannot
    reach it within the internal cost cap (does not happen for [Fast]). *)

val chain : table -> int -> Chain.t option
(** Reconstruct a chain realising [cost]. *)

val find : ?mode:mode -> int -> Chain.t option
(** Chain for one constant [n >= 1]: uses a lazily built shared table for
    [n <= 2^16] and a recursive descent above it. The descent is exact
    integer arithmetic for any [n] up to [max_int] (2^62 - 1). The
    library passes magnitudes below 2^32: [Div_const]'s reciprocals
    [a < 2^32] and [Div_magic_modern]'s fixup-free multipliers
    [m < 2^32] (its [m] reaches 2^33, but only those below 2^32 are
    costed as chains). The tests pin chains for 32- and 33-bit targets.
    From 2^32 - 1 up a chain may shift by more than 31, which
    {!Chain.values} rejects, so code generators must check what they
    get. [None] only in [Monotonic] mode when the cap is exceeded.

    The descent compares integer costs, not chains: every node above the
    table records its cost and the first strictly cheaper rule, in a memo
    local to this call, and only the winning chain is rebuilt, once. It
    tests divisibility by [2^k +/- 1] by multiplying with the factor's
    inverse modulo 2^63 ({!exact_quotient}), not by dividing. No path
    through the descent revisits a node (every rule lowers the value
    except [n + 1], which is halved at once), so the result is a pure
    function of [mode] and [n]: the same in any domain, after any history
    of queries.

    The shared tables, seed chains included, are built once per mode,
    under a lock, and only read afterwards. Each domain keeps one bounded
    cache of its own, of finished [(mode, n)] results, started afresh
    when full ({!domain_cache_sizes}). It takes no lock, so within one
    domain only one thread may plan at a time (as in the server, whose
    shards each plan on a single worker domain). *)

val find_exn : ?mode:mode -> int -> Chain.t

val domain_cache_sizes : unit -> (string * int * int) list
(** The calling domain's cache as [(name, entries, capacity)]; entries
    never exceed the capacity. For tests and diagnostics. *)

val exact_quotient : int -> int -> int option
(** [exact_quotient f n] is [Some (n / f)] when [f] divides [n] and
    [None] otherwise, for odd [f >= 1] and [0 <= n <= max_int] (else
    [Invalid_argument]); computed, as the descent tests its factors, by
    one multiplication with [f]'s inverse modulo 2^63 and a comparison. *)
