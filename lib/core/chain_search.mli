(** Exhaustive search for minimal chains.

    The paper verifies its rule program against "a program that exhaustively
    searches for all possible chains" and derives Figure 1 (the least [n]
    with [l(n) = r]) from it, noting that exhaustive search at depth 7 was
    already prohibitive in 1987. This module is that program.

    Exhaustive search must track whole chains (a step may reuse {e any}
    earlier element, which is exactly what the rule program misses in its
    exceptional cases), so the search state is the set of values built so
    far. Two entry points:

    - {!lengths_table}: breadth-first closure over value sets up to a depth
      bound, producing the exact [l(n)] for every reachable [n <= limit].
      Memory grows steeply with depth; depth 4 is comfortable, depth 5 is
      not (the 1987 authors hit the same wall two levels higher).
    - {!find}: iterative-deepening search for one target, used to certify
      individual table entries and to return an actual minimal chain.
    - {!first_chains}: {!find}'s answer for every target up to a limit at
      once, from one walk per depth; the rule program's table keeps
      these as its seeds.

    Intermediate values may be negative and are bounded by [cap] (default
    [4 * limit + 16], which always covers the [(2^k - 1) * n] detour);
    shift amounts are bounded so results stay under the cap. The cap is the
    one heuristic separating this from a full proof — DESIGN.md discusses
    why it is adequate. *)

type lengths_table

val lengths_table :
  ?cap:int ->
  ?domains:int ->
  ?obs:Hppa_obs.Obs.Registry.t ->
  max_len:int ->
  limit:int ->
  unit ->
  lengths_table
(** [domains] (default 1) shards each breadth-first frontier across that
    many OCaml domains via {!Hppa_machine.Sweep}; [domains <= 0] raises
    [Invalid_argument], and a [domains] larger than a frontier simply
    leaves the excess workers idle. The result is bit-identical for
    every domain count: workers keep private best-length and
    next-frontier accumulators and the merge is an elementwise minimum
    plus a set union, both order-independent.

    [obs] publishes search progress: [hppa_chain_sets_expanded_total],
    [hppa_chain_candidates_total], [hppa_chain_depths_total] (counters)
    and [hppa_chain_frontier_size] (gauge). Workers count into
    shard-local ints settled at each depth's merge, so the totals are
    exact — and identical — for every domain count. *)

val length_of : lengths_table -> int -> int option
(** Exact minimal chain length for [n] in [1 .. limit], or [None] if [n] is
    not reachable within [max_len] steps (hence [l(n) > max_len]). *)

val max_len : lengths_table -> int
val limit : lengths_table -> int

val find : ?cap:int -> max_len:int -> int -> Chain.t option
(** Minimal chain for one target within the depth bound; [None] certifies
    [l(n) > max_len] (modulo the cap heuristic). *)

val first_chains :
  cap:int -> max_len:int -> limit:int -> Chain.t option array
(** Indexed by target: for every [n] in [2 .. limit] with a chain of at
    most [max_len] steps, the chain [find ~cap ~max_len n] returns;
    [None] for every other index, [0] and [1] included. One depth-first
    walk per depth, in {!find}'s order, serves every target at once
    instead of one search each. *)
