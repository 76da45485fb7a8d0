(* The search state is the multiset-free list of values generated so far
   (0 and 1 implicit). Candidate extensions enumerate every instruction form
   over every pair of available elements. *)

module Obs = Hppa_obs.Obs

type lengths_table = { max_len : int; limit : int; best : int array }

let max_len t = t.max_len
let limit t = t.limit

let default_cap limit = (4 * limit) + 16

(* Enumerate every value derivable in one step from [values] (which includes
   0 and 1), calling [f value step]. Steps reference [values] indices. *)
let candidates ~cap values nvals f =
  for j = 0 to nvals - 1 do
    let x = values.(j) in
    (* Shifts of x. *)
    if x <> 0 then begin
      let s = ref 1 in
      while
        !s <= 31
        && Int.abs x <= (max_int asr (!s + 1))
        && Int.abs (x lsl !s) <= cap
      do
        f (x lsl !s) (Chain.Shl (j, !s));
        incr s
      done
    end;
    for k = 0 to nvals - 1 do
      let y = values.(k) in
      (* x + y, unordered. *)
      if k <= j && Int.abs (x + y) <= cap then f (x + y) (Chain.Add (j, k));
      (* (x << m) + y, ordered. *)
      for m = 1 to 3 do
        let v = (x lsl m) + y in
        if Int.abs x <= max_int asr 4 && Int.abs v <= cap then
          f v (Chain.Shadd (m, j, k))
      done;
      (* x - y, ordered. *)
      if Int.abs (x - y) <= cap then f (x - y) (Chain.Sub (j, k))
    done
  done

let useful v values nvals =
  let fresh = ref (v <> 0 && v <> 1) in
  for i = 0 to nvals - 1 do
    if values.(i) = v then fresh := false
  done;
  !fresh

(* ------------------------------------------------------------------ *)
(* Breadth-first closure                                               *)

(* Value sets are small sorted int arrays; the table operations on them
   are the closure's inner loop, so the key operations are monomorphic —
   the polymorphic [Stdlib.(=)]/[Hashtbl.hash] walk the representation
   through a generic comparator and cost several times as much. *)
module Key = struct
  type t = int array

  let equal (a : int array) (b : int array) =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec eq i = i >= n || (a.(i) = b.(i) && eq (i + 1)) in
    eq 0

  (* FNV-1a over the elements (values may be negative; the final mask
     keeps the result non-negative). *)
  let hash (a : int array) =
    let h = ref 0x811c9dc5 in
    for i = 0 to Array.length a - 1 do
      h := (!h lxor a.(i)) * 0x01000193
    done;
    !h land max_int
end

module Tbl = Hashtbl.Make (Key)

(* Sets are kept sorted ascending and never contain duplicates ([useful]
   filters members), so extension is a single-shift insertion rather
   than a polymorphic [Array.sort compare]. *)
let sorted_insert arr v =
  let n = Array.length arr in
  let out = Array.make (n + 1) v in
  let i = ref 0 in
  while !i < n && arr.(!i) < v do
    incr i
  done;
  Array.blit arr 0 out 0 !i;
  out.(!i) <- v;
  Array.blit arr !i out (!i + 1) (n - !i);
  out

let lengths_table ?cap ?(domains = 1) ?obs ~max_len ~limit () =
  if max_len < 0 || limit < 1 then invalid_arg "Chain_search.lengths_table";
  if domains < 1 then
    invalid_arg "Chain_search.lengths_table: domains must be >= 1";
  (* Progress counters: workers count into shard-local ints and the merge
     settles them, so the published totals are exact for any domain count
     (and identical across domain counts, like the table itself). *)
  let counters =
    Option.map
      (fun reg ->
        ( Obs.Registry.counter reg ~help:"Frontier sets expanded"
            "hppa_chain_sets_expanded_total",
          Obs.Registry.counter reg ~help:"Candidate chain extensions enumerated"
            "hppa_chain_candidates_total",
          Obs.Registry.counter reg ~help:"Completed BFS depths"
            "hppa_chain_depths_total",
          Obs.Registry.gauge reg ~help:"Size of the most recent frontier"
            "hppa_chain_frontier_size" ))
      obs
  in
  let cap = Option.value cap ~default:(default_cap limit) in
  let best = Array.make (limit + 1) max_int in
  best.(1) <- 0;
  let visited = Tbl.create 4096 in
  (* Expand one shard of the depth-[depth] frontier. Workers share
     [visited] read-only (no writer runs concurrently, so concurrent
     reads are safe) and keep private [lbest]/[next] accumulators, which
     makes the merge below order-independent and hence the table
     deterministic for every domain count. *)
  let expand_range frontier depth ~lo ~hi =
    let lbest = Array.make (limit + 1) max_int in
    let next = Tbl.create 4096 in
    let scratch = Array.make (max_len + 3) 0 in
    let cands = ref 0 in
    for idx = lo to hi - 1 do
      let set = frontier.(idx) in
      let n = Array.length set in
      scratch.(0) <- 0;
      scratch.(1) <- 1;
      Array.blit set 0 scratch 2 n;
      let nvals = n + 2 in
      candidates ~cap scratch nvals (fun v _step ->
          incr cands;
          if useful v scratch nvals then begin
            if v >= 1 && v <= limit && depth < lbest.(v) then
              lbest.(v) <- depth;
            if depth < max_len then begin
              let key = sorted_insert set v in
              if (not (Tbl.mem visited key)) && not (Tbl.mem next key)
              then Tbl.add next key ()
            end
          end)
    done;
    (lbest, next, !cands)
  in
  let rec grow depth frontier =
    if depth > max_len || Array.length frontier = 0 then ()
    else begin
      let parts =
        Hppa_machine.Sweep.map_ranges ~domains
          (expand_range frontier depth)
          (Array.length frontier)
      in
      (* Deterministic merge: [best] takes the elementwise minimum, the
         next frontier the set union — both independent of worker count
         and completion order. *)
      let merged = Tbl.create 4096 in
      List.iter
        (fun (lbest, next, _) ->
          for v = 1 to limit do
            if lbest.(v) < best.(v) then best.(v) <- lbest.(v)
          done;
          Tbl.iter
            (fun k () -> if not (Tbl.mem merged k) then Tbl.add merged k ())
            next)
        parts;
      let frontier' = Array.of_seq (Tbl.to_seq_keys merged) in
      (match counters with
      | None -> ()
      | Some (sets, cands, depths, frontier_size) ->
          Obs.Counter.add sets (Array.length frontier);
          List.iter (fun (_, _, c) -> Obs.Counter.add cands c) parts;
          Obs.Counter.incr depths;
          Obs.Gauge.set frontier_size (float_of_int (Array.length frontier')));
      Array.iter (fun k -> Tbl.add visited k ()) frontier';
      grow (depth + 1) frontier'
    end
  in
  grow 1 [| [||] |];
  { max_len; limit; best }

let length_of t n =
  if n < 1 || n > t.limit then None
  else if t.best.(n) = max_int then None
  else Some t.best.(n)

(* ------------------------------------------------------------------ *)
(* Per-target iterative deepening                                      *)

let find ?cap ~max_len target =
  if target < 1 then invalid_arg "Chain_search.find";
  let cap = Option.value cap ~default:((4 * target) + 16) in
  if target = 1 then Some []
  else begin
    let exception Found of Chain.t in
    let values = Array.make (max_len + 2) 0 in
    values.(1) <- 1;
    let steps = Array.make (max_len + 2) (Chain.Add (0, 0)) in
    (* DFS filling [values] from index 2 up to [2 + depth - 1]. *)
    let rec dfs nvals remaining =
      if remaining = 1 then
        candidates ~cap values nvals (fun v step ->
            if v = target then begin
              steps.(nvals) <- step;
              let chain =
                Array.to_list (Array.sub steps 2 (nvals - 1))
              in
              raise (Found chain)
            end)
      else begin
        (* Deduplicate candidate values at this node. *)
        let seen = Hashtbl.create 64 in
        candidates ~cap values nvals (fun v step ->
            if useful v values nvals && not (Hashtbl.mem seen v) then begin
              Hashtbl.add seen v ();
              values.(nvals) <- v;
              steps.(nvals) <- step;
              dfs (nvals + 1) (remaining - 1);
              values.(nvals) <- 0
            end)
      end
    in
    let rec deepen d =
      if d > max_len then None
      else
        try
          dfs 2 d;
          deepen (d + 1)
        with Found chain -> Some chain
    in
    deepen 1
  end

(* ------------------------------------------------------------------ *)
(* First chains of every target, in [find]'s order                     *)

(* [find]'s depth-[d] search, run once for all targets: the same
   candidate order, [useful] filter and per-node dedup, recording at the
   last step the first chain that reaches each value not reached at a
   smaller depth. That chain is the one [find ~cap ~max_len n] returns:
   [find] tries depths in increasing order and stops at the first hit of
   its own depth-[d] walk, which is this walk up to that hit. *)
let first_chains ~cap ~max_len ~limit =
  if max_len < 0 || limit < 1 then invalid_arg "Chain_search.first_chains";
  let first = Array.make (limit + 1) None in
  let values = Array.make (max_len + 2) 0 in
  values.(1) <- 1;
  let steps = Array.make (max_len + 2) (Chain.Add (0, 0)) in
  let rec dfs nvals remaining =
    if remaining = 1 then
      candidates ~cap values nvals (fun v step ->
          if v >= 2 && v <= limit && Option.is_none first.(v) then begin
            steps.(nvals) <- step;
            first.(v) <- Some (Array.to_list (Array.sub steps 2 (nvals - 1)))
          end)
    else begin
      let seen = Hashtbl.create 64 in
      candidates ~cap values nvals (fun v step ->
          if useful v values nvals && not (Hashtbl.mem seen v) then begin
            Hashtbl.add seen v ();
            values.(nvals) <- v;
            steps.(nvals) <- step;
            dfs (nvals + 1) (remaining - 1);
            values.(nvals) <- 0
          end)
    end
  in
  for depth = 1 to max_len do
    dfs 2 depth
  done;
  first
