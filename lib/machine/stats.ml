(* Execution statistics, backed by the unified observability layer.

   Every quantity is an [Obs.Counter.t] so a machine's dynamic counts can
   be published into an [Obs.Registry.t] (hppa-run --metrics, the
   METRICS server verb) without a second bookkeeping path: the STATS
   numbers and the registry snapshot read the same atomics. A Stats value
   owns its counters — two machines never share them — so per-run cycle
   accounting ([diff]) stays exact even when many machines publish into
   one registry (each registration carries its own labels, last wins). *)

module Obs = Hppa_obs.Obs

type t = {
  executed : Obs.Counter.t;
  nullified : Obs.Counter.t;
  branches_taken : Obs.Counter.t;
  histogram : (string, Obs.Counter.t) Hashtbl.t;
  traps : (string, Obs.Counter.t) Hashtbl.t;
  registry : Obs.Registry.t option;
  labels : (string * string) list;
}

let create ?registry ?(labels = []) () =
  let t =
    {
      executed = Obs.Counter.create ();
      nullified = Obs.Counter.create ();
      branches_taken = Obs.Counter.create ();
      histogram = Hashtbl.create 32;
      traps = Hashtbl.create 4;
      registry;
      labels;
    }
  in
  (match registry with
  | None -> ()
  | Some reg ->
      Obs.Registry.register_counter reg ~labels
        ~help:"Dynamically executed instructions" "hppa_sim_executed_total"
        t.executed;
      Obs.Registry.register_counter reg ~labels
        ~help:"Nullified instructions (cost their cycle)"
        "hppa_sim_nullified_total" t.nullified;
      Obs.Registry.register_counter reg ~labels
        ~help:"Taken branches" "hppa_sim_branches_taken_total"
        t.branches_taken);
  t

let reset t =
  Obs.Counter.reset t.executed;
  Obs.Counter.reset t.nullified;
  Obs.Counter.reset t.branches_taken;
  Hashtbl.iter (fun _ c -> Obs.Counter.reset c) t.histogram;
  Hashtbl.iter (fun _ c -> Obs.Counter.reset c) t.traps

(* Get-or-create the per-mnemonic counter, publishing it (labelled) when a
   registry is attached. The hot path is the Hashtbl.find_opt hit. *)
let mnemonic_counter t mnemonic =
  match Hashtbl.find_opt t.histogram mnemonic with
  | Some c -> c
  | None ->
      let c = Obs.Counter.create () in
      Hashtbl.replace t.histogram mnemonic c;
      (match t.registry with
      | None -> ()
      | Some reg ->
          Obs.Registry.register_counter reg
            ~labels:(("mnemonic", mnemonic) :: t.labels)
            ~help:"Executed instructions by mnemonic" "hppa_sim_insns_total" c);
      c

let record t ~nullified ~mnemonic =
  if nullified then Obs.Counter.incr t.nullified
  else begin
    Obs.Counter.incr t.executed;
    Obs.Counter.incr (mnemonic_counter t mnemonic)
  end

let record_branch_taken t = Obs.Counter.incr t.branches_taken

let record_trap t trap_name =
  let c =
    match Hashtbl.find_opt t.traps trap_name with
    | Some c -> c
    | None ->
        let c = Obs.Counter.create () in
        Hashtbl.replace t.traps trap_name c;
        (match t.registry with
        | None -> ()
        | Some reg ->
            Obs.Registry.register_counter reg
              ~labels:(("trap", trap_name) :: t.labels)
              ~help:"Traps taken by kind" "hppa_sim_traps_total" c);
        c
  in
  Obs.Counter.incr c

(* Mnemonics are interned as the translation compiles each
   instruction, so a tally knows only the mnemonics of the code
   translated so far. [counts] has one slot per instruction of the
   image, since the closures keep it; the slots of the interned
   mnemonics grow as they are interned instead, because two more
   image-sized arrays per engine measurably raised perfbench's
   [sim_kernels] set-up time. A slot's handle is resolved through
   [mnemonic_counter] on the first settle that sees its mnemonic
   executed, so a series is still registered only once it is nonzero. *)
type slot = { name : string; mutable handle : Obs.Counter.t }

type tally = {
  stats : t;
  ids : (string, int) Hashtbl.t;
  mutable slots : slot array;  (* by id; grown by doubling *)
  counts : int array;
}

let unbound = Obs.Counter.create ()
let no_slot = { name = ""; handle = unbound }

let tally stats ~capacity =
  { stats; ids = Hashtbl.create 16; slots = [||];
    counts = Array.make capacity 0 }

let counts ty = ty.counts

let intern ty mnemonic =
  match Hashtbl.find_opt ty.ids mnemonic with
  | Some id -> id
  | None ->
      let id = Hashtbl.length ty.ids in
      if id >= Array.length ty.counts then
        invalid_arg "Stats.intern: more mnemonics than the tally's capacity";
      if id = Array.length ty.slots then begin
        let grown = Array.make (max 16 (2 * id)) no_slot in
        Array.blit ty.slots 0 grown 0 id;
        ty.slots <- grown
      end;
      ty.slots.(id) <- { name = mnemonic; handle = unbound };
      Hashtbl.add ty.ids mnemonic id;
      id

let settle ty ~nullified ~taken =
  let total = ref 0 in
  for id = 0 to Hashtbl.length ty.ids - 1 do
    let n = ty.counts.(id) in
    if n > 0 then begin
      let s = ty.slots.(id) in
      if s.handle == unbound then s.handle <- mnemonic_counter ty.stats s.name;
      Obs.Counter.add s.handle n;
      total := !total + n;
      ty.counts.(id) <- 0
    end
  done;
  if !total > 0 then Obs.Counter.add ty.stats.executed !total;
  if nullified > 0 then Obs.Counter.add ty.stats.nullified nullified;
  if taken > 0 then Obs.Counter.add ty.stats.branches_taken taken

let cycles t = Obs.Counter.get t.executed + Obs.Counter.get t.nullified
let executed t = Obs.Counter.get t.executed
let nullified t = Obs.Counter.get t.nullified
let branches_taken t = Obs.Counter.get t.branches_taken

let by_mnemonic t =
  Hashtbl.fold (fun k c acc -> (k, Obs.Counter.get c) :: acc) t.histogram []
  |> List.filter (fun (_, n) -> n > 0)
  |> List.sort (fun (k1, v1) (k2, v2) ->
         match compare v2 v1 with 0 -> compare k1 k2 | c -> c)

let by_trap t =
  Hashtbl.fold (fun k c acc -> (k, Obs.Counter.get c) :: acc) t.traps []
  |> List.filter (fun (_, n) -> n > 0)
  |> List.sort (fun (k1, _) (k2, _) -> compare k1 k2)

let diff ~before ~after = cycles after - cycles before

(* A snapshot is detached: fresh counters, no registry publication. *)
let snapshot t =
  let copy_tbl tbl =
    let out = Hashtbl.create (max 1 (Hashtbl.length tbl)) in
    Hashtbl.iter
      (fun k c ->
        let c' = Obs.Counter.create () in
        Obs.Counter.add c' (Obs.Counter.get c);
        Hashtbl.replace out k c')
      tbl;
    out
  in
  let copy c =
    let c' = Obs.Counter.create () in
    Obs.Counter.add c' (Obs.Counter.get c);
    c'
  in
  {
    executed = copy t.executed;
    nullified = copy t.nullified;
    branches_taken = copy t.branches_taken;
    histogram = copy_tbl t.histogram;
    traps = copy_tbl t.traps;
    registry = None;
    labels = t.labels;
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>cycles: %d (executed %d, nullified %d, taken branches %d)"
    (cycles t) (executed t) (nullified t) (branches_taken t);
  List.iter (fun (m, n) -> Format.fprintf ppf "@,  %-12s %d" m n) (by_mnemonic t);
  List.iter
    (fun (m, n) -> Format.fprintf ppf "@,  trap:%-7s %d" m n)
    (by_trap t);
  Format.fprintf ppf "@]"
