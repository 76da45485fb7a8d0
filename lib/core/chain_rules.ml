type mode = Fast | Monotonic | No_temp

(* How a table entry was produced; [m] is the predecessor target. *)
type rule =
  | Base (* n = 1 *)
  | Rshl of int * int (* n = m << k                 [Shl]            *)
  | Rdouble of int (* n = 2m                     [Add last last]  *)
  | Rshadd_self of int * int (* n = (2^k + 1) m, k in 1..3 [Shadd k l l]    *)
  | Rshadd_zero of int * int (* n = m << k, k in 1..3      [Shadd k l r0]   *)
  | Radd1 of int (* n = m + 1                  [Add last one]   *)
  | Raddp2 of int * int (* n = m + 2^k, k in 1..3     [Shadd k one l]  *)
  | Rsub1 of int (* n = m - 1                  [Sub last one]   *)
  | Rshadd1 of int * int (* n = (m << k) + 1, k 1..3   [Shadd k l one]  *)
  | Rmul2k_minus of int * int (* n = (2^k - 1) m            [Shl; Sub]      *)
  | Rmul2k_plus of int * int (* n = (2^k + 1) m, k >= 4    [Shl; Add]      *)
  | Rfactor of int * int (* n = p * q                  [compose]       *)
  | Rseed of Chain.t (* minimal chain from the exhaustive depth-3
                        search — the paper's "remembering the
                        exceptions" *)

type table = {
  mode : mode;
  limit : int;
  costs : int array; (* index 0 unused; max_int = unreachable *)
  rules : rule array;
}

let unreachable = max_int

let table_limit t = t.limit

(* ------------------------------------------------------------------ *)
(* Relaxation                                                          *)

let relax t n cand rule =
  if n >= 1 && n <= t.limit && cand < t.costs.(n) then begin
    t.costs.(n) <- cand;
    t.rules.(n) <- rule;
    true
  end
  else false

(* Forward edges from a settled target [m]. Returns true if anything
   improved. *)
let relax_from t m =
  let c = t.costs.(m) in
  if c = unreachable then false
  else begin
    let changed = ref false in
    let mark n cand rule = if relax t n cand rule then changed := true in
    let fast = t.mode = Fast || t.mode = No_temp in
    (* Doubling and small shift-and-add multiples. *)
    mark (2 * m) (c + 1) (Rdouble m);
    for k = 1 to 3 do
      let f = (1 lsl k) + 1 in
      if m <= t.limit / f then mark (f * m) (c + 1) (Rshadd_self (m, k));
      if m lsl k <= t.limit then begin
        if t.mode <> Fast then mark (m lsl k) (c + 1) (Rshadd_zero (m, k));
        mark ((m lsl k) + 1) (c + 1) (Rshadd1 (m, k))
      end;
      mark (m + (1 lsl k)) (c + 1) (Raddp2 (m, k))
    done;
    mark (m + 1) (c + 1) (Radd1 m);
    if fast then begin
      mark (m - 1) (c + 1) (Rsub1 m);
      (* Arbitrary shifts. *)
      let k = ref 1 in
      while m lsl !k <= t.limit && !k <= 31 do
        mark (m lsl !k) (c + 1) (Rshl (m, !k));
        incr k
      done
    end;
    if t.mode = Fast then
      (* (2^k +/- 1) multiples through an out-of-table intermediate; the
         subtraction step reads two non-adjacent elements, so these need a
         temporary and are excluded from No_temp. *)
      for k = 2 to 31 do
        let f = (1 lsl k) - 1 in
        if f <= t.limit && m <= t.limit / f then
          mark (f * m) (c + 2) (Rmul2k_minus (m, k));
        let f = (1 lsl k) + 1 in
        if k >= 4 && f <= t.limit && m <= t.limit / f then
          mark (f * m) (c + 2) (Rmul2k_plus (m, k))
      done;
    !changed
  end

let relax_factors t =
  let changed = ref false in
  for p = 2 to t.limit / 2 do
    if t.costs.(p) < unreachable then
      let q = ref p in
      while !q <= t.limit / p do
        if t.costs.(!q) < unreachable then begin
          let cand = t.costs.(p) + t.costs.(!q) in
          if relax t (p * !q) cand (Rfactor (p, !q)) then changed := true
        end;
        incr q
      done
  done;
  !changed

(* The value-level relaxation cannot express chains that reuse an
   intermediate element twice (the paper's 59 is the canonical case), so
   Fast tables are seeded with the exact exhaustive search to depth 3 —
   cheap, and the same move as the paper's "by remembering these
   exceptions, minimal length chains may be generated". The table
   remembers the chains themselves: the ones [Chain_search.find] would
   return, all found by one walk per depth. *)
let seed_depth = 3

let table mode ~limit =
  if limit < 1 then invalid_arg "Chain_rules.table: limit must be >= 1";
  let t =
    {
      mode;
      limit;
      costs = Array.make (limit + 1) unreachable;
      rules = Array.make (limit + 1) Base;
    }
  in
  t.costs.(1) <- 0;
  if mode = Fast then
    Array.iteri
      (fun n seed ->
        match seed with
        | Some c when n >= 2 ->
            t.costs.(n) <- Chain.length c;
            t.rules.(n) <- Rseed c
        | Some _ | None -> ())
      (Chain_search.first_chains ~cap:((4 * limit) + 16) ~max_len:seed_depth
         ~limit);
  let continue = ref true in
  while !continue do
    let changed = ref false in
    for m = 1 to limit do
      if relax_from t m then changed := true
    done;
    (* Factor composition keeps an old element live across the inner
       chain, so it is excluded from No_temp. *)
    if t.mode <> No_temp && relax_factors t then changed := true;
    continue := !changed
  done;
  t

let cost t n =
  if n < 1 || n > t.limit then None
  else
    let c = t.costs.(n) in
    if c = unreachable then None else Some c

(* ------------------------------------------------------------------ *)
(* Reconstruction                                                      *)

(* Re-index [inner]'s steps so that its element 1 becomes the last element
   of [outer]: multiplying the two chains composes. *)
let compose outer inner =
  let shift = List.length outer in
  let last_of_outer = shift + 1 in
  let reindex j =
    if j = 0 then 0 else if j = 1 then last_of_outer else j + shift
  in
  let map_step : Chain.step -> Chain.step = function
    | Add (j, k) -> Add (reindex j, reindex k)
    | Shadd (m, j, k) -> Shadd (m, reindex j, reindex k)
    | Sub (j, k) -> Sub (reindex j, reindex k)
    | Shl (j, m) -> Shl (reindex j, m)
  in
  outer @ List.map map_step inner

(* Extend [c] (a chain for some m) by steps that only use the last element,
   element 1 and element 0. *)
let extend c steps_of_last =
  let last = List.length c + 1 in
  c @ steps_of_last last

(* A fixed-capacity table private to one domain: once [cap] entries are
   held, the next insertion starts it afresh. Planning results are pure
   functions of their key, so dropping entries only costs recomputation. *)
module Bounded = struct
  type ('k, 'v) t = { cap : int; tbl : ('k, 'v) Hashtbl.t }

  let create cap = { cap; tbl = Hashtbl.create 64 }
  let find t k = Hashtbl.find_opt t.tbl k

  let add t k v =
    if Hashtbl.length t.tbl >= t.cap then Hashtbl.reset t.tbl;
    Hashtbl.replace t.tbl k v

  let length t = Hashtbl.length t.tbl
end

let cache_cap = 4096

let chain t n =
  let rec build n : Chain.t option =
    if n < 1 || n > t.limit || t.costs.(n) = unreachable then None
    else
      match t.rules.(n) with
      | Base -> Some []
      | Rshl (m, k) ->
          Option.map (fun c -> extend c (fun l -> [ Chain.Shl (l, k) ])) (build m)
      | Rdouble m ->
          Option.map (fun c -> extend c (fun l -> [ Chain.Add (l, l) ])) (build m)
      | Rshadd_self (m, k) ->
          Option.map (fun c -> extend c (fun l -> [ Chain.Shadd (k, l, l) ])) (build m)
      | Rshadd_zero (m, k) ->
          Option.map (fun c -> extend c (fun l -> [ Chain.Shadd (k, l, 0) ])) (build m)
      | Radd1 m ->
          Option.map (fun c -> extend c (fun l -> [ Chain.Add (l, 1) ])) (build m)
      | Raddp2 (m, k) ->
          Option.map (fun c -> extend c (fun l -> [ Chain.Shadd (k, 1, l) ])) (build m)
      | Rsub1 m ->
          Option.map (fun c -> extend c (fun l -> [ Chain.Sub (l, 1) ])) (build m)
      | Rshadd1 (m, k) ->
          Option.map (fun c -> extend c (fun l -> [ Chain.Shadd (k, l, 1) ])) (build m)
      | Rmul2k_minus (m, k) ->
          Option.map
            (fun c ->
              extend c (fun l -> [ Chain.Shl (l, k); Chain.Sub (l + 1, l) ]))
            (build m)
      | Rmul2k_plus (m, k) ->
          Option.map
            (fun c ->
              extend c (fun l -> [ Chain.Shl (l, k); Chain.Add (l + 1, l) ]))
            (build m)
      | Rfactor (p, q) -> (
          match (build p, build q) with
          | Some cp, Some cq -> Some (compose cp cq)
          | _, _ -> None)
      | Rseed c -> Some c
  in
  build n

(* ------------------------------------------------------------------ *)
(* Arbitrary single constants                                          *)

let shared_limit = 1 lsl 16

(* Built at most once per mode, under the lock, by whichever domain asks
   first; afterwards the tables are only read. *)
let shared_lock = Mutex.create ()
let shared_tables : (mode * table) list ref = ref []

let shared_table mode =
  Mutex.protect shared_lock (fun () ->
      match List.assoc_opt mode !shared_tables with
      | Some t -> t
      | None ->
          let t = table mode ~limit:shared_limit in
          shared_tables := (mode, t) :: !shared_tables;
          t)

(* Recursive descent for targets beyond the shared table. Not guaranteed
   minimal (neither was the paper's program); the compiler's cost model
   compares the result against the millicode multiply anyway.

   The descent compares costs, not chains: each node above the table gets
   its cost and winning rule, memoised for the duration of one [find], and
   only the winner's chain is rebuilt at the end. A winning rule is the
   predecessor [m] plus the steps that extend [m]'s chain. No path revisits
   a node: every rule lowers the value except [n + 1], which is even and
   is halved at once to at most [(n + 1) / 2], and from any odd [v] the
   largest value reachable is [v + 1]. So the recursion terminates, no node
   is consulted while in progress, and results are pure functions of [n]. *)
type node = { cost : int; pred : int; steps : int -> Chain.step list }

let no_node = { cost = unreachable; pred = 0; steps = (fun _ -> []) }

(* Exact division by an odd [f] with no divide instruction, as section 7
   divides by a constant: [inv] is [f]'s inverse modulo 2^63 (OCaml's
   wrap-around), so for [0 <= n <= max_int] the product [n * inv] is
   [n / f] when [f] divides [n], and otherwise lands outside
   [0 .. max_int / f]. Newton's step [x (2 - f x)] doubles the number of
   correct low bits, and [f * f = 1 (mod 8)] gives the first three. *)
type divisor = { inv : int; qmax : int }

let divisor f =
  let rec refine x i = if i = 0 then x else refine (x * (2 - (f * x))) (i - 1) in
  { inv = refine f 5; qmax = max_int / f }

(* [n / f] when [f] divides [n], else [-1]. *)
let quotient d n =
  let q = n * d.inv in
  if q >= 0 && q <= d.qmax then q else -1

let exact_quotient f n =
  if f < 1 || f land 1 = 0 || n < 0 then
    invalid_arg "Chain_rules.exact_quotient";
  let q = quotient (divisor f) n in
  if q < 0 then None else Some q

(* The descent's factors: 3, 5, 9 (one SHkADD), then 2^k - 1 and
   2^k + 1 for k = 4 .. 31 (a shift and a subtract or add). *)
let shadd_divisors = [| (divisor 3, 1); (divisor 5, 2); (divisor 9, 3) |]
let minus_divisors = Array.init 28 (fun i -> divisor ((1 lsl (i + 4)) - 1))
let plus_divisors = Array.init 28 (fun i -> divisor ((1 lsl (i + 4)) + 1))

let descend mode n : Chain.t option =
  let t = shared_table mode in
  let memo : (int, node) Hashtbl.t = Hashtbl.create 64 in
  let rec cost n =
    if n <= t.limit then t.costs.(n)
    else
      match Hashtbl.find_opt memo n with
      | Some node -> node.cost
      | None ->
          let node = best n in
          Hashtbl.add memo n node;
          node.cost
  (* The first strictly cheaper candidate wins, in the rules' order;
     [k] is the number of steps [steps] appends. *)
  and best n =
    let best = ref no_node in
    let try_rule m k steps =
      let c = cost m in
      if c <> unreachable && c + k < !best.cost then
        best := { cost = c + k; pred = m; steps }
    in
    let fast = mode = Fast in
    let tz =
      let rec go k v = if v land 1 = 0 then go (k + 1) (v lsr 1) else k in
      go 0 n
    in
    if tz > 0 then begin
      let m = n asr tz in
      if fast then try_rule m 1 (fun l -> [ Chain.Shl (l, tz) ])
      else begin
        (* Monotonic shifting in chunks of <= 3 via SHkADD with r0. *)
        let rec shifts l k acc =
          if k = 0 then List.rev acc
          else
            let s = min k 3 in
            shifts (l + 1) (k - s) (Chain.Shadd (s, l, 0) :: acc)
        in
        try_rule m ((tz + 2) / 3) (fun l -> shifts l tz [])
      end
    end
    else begin
      Array.iter
        (fun (d, k) ->
          let q = quotient d n in
          if q >= 0 then try_rule q 1 (fun l -> [ Chain.Shadd (k, l, l) ]))
        shadd_divisors;
      for k = 1 to 3 do
        if (n - 1) land ((1 lsl k) - 1) = 0 && (n - 1) asr k > 0 then
          try_rule ((n - 1) asr k) 1 (fun l -> [ Chain.Shadd (k, l, 1) ])
      done;
      try_rule (n - 1) 1 (fun l -> [ Chain.Add (l, 1) ]);
      if fast then begin
        try_rule (n + 1) 1 (fun l -> [ Chain.Sub (l, 1) ]);
        for k = 4 to 31 do
          let q = quotient minus_divisors.(k - 4) n in
          if q >= 0 then
            try_rule q 2 (fun l -> [ Chain.Shl (l, k); Chain.Sub (l + 1, l) ]);
          let q = quotient plus_divisors.(k - 4) n in
          if q >= 0 then
            try_rule q 2 (fun l -> [ Chain.Shl (l, k); Chain.Add (l + 1, l) ])
        done
      end
    end;
    !best
  in
  let rec rebuild n =
    if n <= t.limit then chain t n
    else
      let node = Hashtbl.find memo n in
      Option.map (fun c -> extend c node.steps) (rebuild node.pred)
  in
  if cost n = unreachable then None else rebuild n

(* Finished results for this domain: the compiler and the selector ask
   for the same constants repeatedly. *)
let result_cache : (mode * int, Chain.t option) Bounded.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Bounded.create cache_cap)

let domain_cache_sizes () =
  [ ("results", Bounded.length (Domain.DLS.get result_cache), cache_cap) ]

let find ?(mode = Fast) n =
  if n < 1 then invalid_arg "Chain_rules.find: target must be >= 1";
  let cache = Domain.DLS.get result_cache in
  match Bounded.find cache (mode, n) with
  | Some c -> c
  | None ->
      let c = descend mode n in
      Bounded.add cache (mode, n) c;
      c

let find_exn ?mode n =
  match find ?mode n with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Chain_rules.find_exn: no chain for %d" n)
