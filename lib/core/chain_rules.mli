(** Rule-based search for multiply-by-constant chains (§5).

    The paper's rule program derives a chain for [n] from chains for smaller
    numbers: one more step reaches [2^k*n], [3n], [5n], [9n], [n-1], [n+1],
    [n+2], [n+4], [n+8], [2n+1], [4n+1] and [8n+1]; two more reach
    [(2^k - 1)n] and [(2^k + 1)n]; and chains compose over factorisations
    ([cost (p*q) <= cost p + cost q]). This module implements those rules as
    a shortest-path relaxation over target values seeded with the exact
    exhaustive closure to depth 3 (the value-level rules cannot express
    chains that reuse an intermediate twice — the paper's 59 — so, like the
    paper, the program "remembers" those cases). The result is fast and —
    as the paper reports for its own rule program — minimal for the large
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
(** Chain for one constant [n >= 1] of any magnitude up to [2^31 - 1]: uses
    a lazily built shared table for small [n] and a recursive descent for
    large [n]. [None] only in [Monotonic] mode when the cap is exceeded.

    The descent compares integer costs, not chains: every node above the
    table records its cost and the first strictly cheaper rule, in a memo
    local to this call, and only the winning chain is rebuilt, once. No
    path through the descent revisits a node (every rule lowers the value
    except [n + 1], which is halved at once), so the result is a pure
    function of [mode] and [n]: the same in any domain, after any history
    of queries.

    Each domain keeps two bounded caches of its own: finished
    [(mode, n)] results, and the exhaustive-search chains behind table
    entries seeded from the depth-3 closure. They are started afresh when
    full ({!domain_cache_sizes}); the shared tables are built once, under
    a lock, and only read afterwards. The caches take no lock, so within
    one domain only one thread may plan at a time (as in the server, whose
    shards each plan on a single worker domain). *)

val find_exn : ?mode:mode -> int -> Chain.t

val domain_cache_sizes : unit -> (string * int * int) list
(** The calling domain's caches as [(name, entries, capacity)]; entries
    never exceed the capacity. For tests and diagnostics. *)
