(* Batched (structure-of-arrays) execution engine.

   The scalar engine ({!Engine}) pays its translation once but still
   dispatches every closure once per instruction per request. For the
   paper's kernels — tiny straight-line or loop bodies — that dispatch
   dominates the arithmetic. This engine translates the program once
   into closures that each execute one instruction for a whole *cohort*
   of lanes, so the closure call, the mnemonic bookkeeping and the
   branch-target checks are paid once per instruction per batch. Each
   lane loop's body is {!Sem}'s statement of the form, applied to one
   register's lane array and a lane.

   Translation is lazy, as in the scalar engine: [create] returns
   untranslated tables, reading instructions through [Program.insn]
   rather than a flat copy of the image, and the scheduler fills a PC's
   run ({!Sem.thread}) the first time a cohort is dispatched there — one
   test per cohort dispatch, paid once for all its lanes. So a batch
   built for one call, as [Plan.run] builds one per multi-lane miss,
   translates only the blocks that call reaches.

   Layout: register state is one unboxed [int array] per architectural
   register ([rf.(reg).(lane)]), carrying the same unsigned 32-bit
   representation as the scalar engine; slot 0 is the hardwired zero and
   slot 32 the write sink for r0 targets. PSW records, nullify flags,
   PCs and cycle counters are parallel per-lane arrays; a lane's
   remaining fuel is the call's budget less its cycles. A lane's
   memory image is allocated on its first store; until then it reads 0.

   Divergence: lanes are scheduled as min-PC cohorts. Each round the
   scheduler gathers every running lane at the lowest PC and dispatches
   the superblock (or a single instruction when some lane's fuel cannot
   cover the block) for all of them at once; lanes that branch apart
   simply land in different future cohorts and reconverge by PC order.
   Because lanes never share state, cohort order cannot affect any
   lane's result — each lane observes exactly the scalar semantics.

   Traps and fuel are per-lane: a compiled closure records a trapping
   lane's [Trap.t] (PC left on the trapping instruction, the instruction
   itself counted executed, like the scalar engine), and the closure's
   rare path compacts it out of the cohort so its neighbours proceed;
   fuel exhaustion and the halt sentinel likewise retire single lanes.
   Cycles are charged when a cohort's run ends: survivors the
   instructions dispatched, retired lanes the instructions they ran.
   While one cohort holds every running lane and stays at one PC, it is
   dispatched again without re-gathering, so a converged batch pays the
   scheduler's passes over its lanes only where it diverges. Statistics
   parity: per-lane cycle counters match the scalar engine's cycle
   accounting lane for lane, and the aggregate mnemonic histogram equals
   the sum of the corresponding scalar runs. Instances are not
   thread-safe; give each domain its own. *)

module Word = Hppa_word.Word
module Obs = Hppa_obs.Obs

type status = Running | Halted | Out_of_fuel | Trapped
type counters = { lanes_run : int; lanes_trapped : int; dispatches : int }

type t = {
  prog : Program.resolved;
  lanes : int;
  mem_words : int;
  rf : int array array;  (* 33 registers x lanes; .(0) zero, .(32) sink *)
  lmem : int array array;
      (* lanes x mem_words; a lane's row is [||] until its first store *)
  lpsw : Sem.psw array;
  lnull : bool array;
  lpc : int array;
  lcyc : int array;  (* cycles of the current/last run *)
  lstatus : status array;
  ltrap : Trap.t array;
  mutable width : int;  (* lanes active in the last call *)
  stats : Stats.t;
  c_lanes : Obs.Counter.t;
  c_trapped : Obs.Counter.t;
  c_dispatches : Obs.Counter.t;
  go : int -> int -> unit;
      (* [go width budget] runs [width] lanes from their per-lane PCs,
         each with [budget] fuel *)
}

(* A lane's memory row reads 0 until its first store allocates it. *)
let[@inline] row_get row i = if Array.length row = 0 then 0 else row.(i)

(* A compiled instruction executes one opcode for lanes[0..k-1] and
   returns the surviving count. [Body] never touches per-lane PCs — its
   successor is implicit; [Term] writes each survivor's next PC. *)
type op = int array -> int -> int

let create ?(mem_bytes = 65536) ?obs ?(obs_labels = []) ~lanes
    (prog : Program.resolved) =
  if lanes <= 0 then invalid_arg "Engine_batch.create: lanes must be positive";
  let len = Program.length prog in
  let mem_words = (mem_bytes + 3) / 4 in
  let lmem = Array.make lanes [||] in
  let rf = Array.init (Sem.sink + 1) (fun _ -> Array.make lanes 0) in
  let lpsw = Array.init lanes (fun _ -> { Sem.carry = false; v = false }) in
  let lnull = Array.make lanes false in
  let lpc = Array.make lanes 0 in
  let lcyc = Array.make lanes 0 in
  let lstatus = Array.make lanes Halted in
  let ltrap = Array.make lanes (Trap.Break 0) in
  (* Closures count cohort sizes into a dense array by mnemonic id. *)
  let stats = Stats.create ?registry:obs ~labels:obs_labels () in
  let tally = Stats.tally stats ~capacity:len in
  let mc = Stats.counts tally in
  (* Per-run aggregates, reset by [go]. *)
  let nulls = ref 0 and taken = ref 0 and disp = ref 0 in
  (* [entry] is the PC the current dispatch started at and [ahead] the
     cycles the cohort ran before it and has not yet been charged;
     [retired] counts lanes that trapped or halted in the running
     closure. *)
  let entry = ref 0 and ahead = ref 0 and retired = ref 0 in
  let retire l status pcv =
    lstatus.(l) <- status;
    lpc.(l) <- pcv;
    incr retired
  in
  let trap l pc tr =
    ltrap.(l) <- tr;
    retire l Trapped pc
  in
  (* The rare path after a closure in which some lane retired: drop the
     retired lanes from the cohort, charging each the cycles it ran (a
     trap counts its own instruction). *)
  let compact ln k =
    retired := 0;
    let j = ref 0 in
    for i = 0 to k - 1 do
      let l = ln.(i) in
      match lstatus.(l) with
      | Running ->
          ln.(!j) <- l;
          incr j
      | Trapped -> lcyc.(l) <- lcyc.(l) + !ahead + lpc.(l) - !entry + 1
      | Halted | Out_of_fuel -> lcyc.(l) <- lcyc.(l) + !ahead + lpc.(l) - !entry
    done;
    !j
  in
  let[@inline] settle ln k = if !retired = 0 then k else compact ln k in
  (* A taken branch; out of the image it traps without counting. *)
  let[@inline] jump l pc target =
    if Sem.in_image len target then begin
      incr taken;
      lpc.(l) <- target
    end
    else trap l pc (Trap.Bad_pc target)
  in
  let load_const n t x =
    let rd = rf.(Sem.dst t) in
    Sem.Body (fun ln k ->
        mc.(n) <- mc.(n) + k;
        for i = 0 to k - 1 do
          rd.(ln.(i)) <- x
        done;
        k)
  in
  let compile pc : (op, op) Sem.compiled =
    let insn = Program.insn prog pc in
    let n = Stats.intern tally (Insn.mnemonic insn) in
    let open Sem in
    match insn with
    | Alu { op; a; b; t; trap_ov } -> (
        let ra = rf.(src a) and rb = rf.(src b) and rd = rf.(dst t) in
        match op with
        | Add when trap_ov ->
            Body (fun ln k ->
                mc.(n) <- mc.(n) + k;
                for i = 0 to k - 1 do
                  let l = ln.(i) in
                  if add ~trap:true ra.(l) rb.(l) rd l lpsw.(l) then
                    trap l pc Trap.Overflow
                done;
                settle ln k)
        | Add ->
            Body (fun ln k ->
                mc.(n) <- mc.(n) + k;
                for i = 0 to k - 1 do
                  let l = ln.(i) in
                  ignore (add ~trap:false ra.(l) rb.(l) rd l lpsw.(l))
                done;
                k)
        | Addc when trap_ov ->
            Body (fun ln k ->
                mc.(n) <- mc.(n) + k;
                for i = 0 to k - 1 do
                  let l = ln.(i) in
                  if addc ~trap:true ra.(l) rb.(l) rd l lpsw.(l) then
                    trap l pc Trap.Overflow
                done;
                settle ln k)
        | Addc ->
            Body (fun ln k ->
                mc.(n) <- mc.(n) + k;
                for i = 0 to k - 1 do
                  let l = ln.(i) in
                  ignore (addc ~trap:false ra.(l) rb.(l) rd l lpsw.(l))
                done;
                k)
        | Sub when trap_ov ->
            Body (fun ln k ->
                mc.(n) <- mc.(n) + k;
                for i = 0 to k - 1 do
                  let l = ln.(i) in
                  if sub ~trap:true ra.(l) rb.(l) rd l lpsw.(l) then
                    trap l pc Trap.Overflow
                done;
                settle ln k)
        | Sub ->
            Body (fun ln k ->
                mc.(n) <- mc.(n) + k;
                for i = 0 to k - 1 do
                  let l = ln.(i) in
                  ignore (sub ~trap:false ra.(l) rb.(l) rd l lpsw.(l))
                done;
                k)
        | Subb when trap_ov ->
            Body (fun ln k ->
                mc.(n) <- mc.(n) + k;
                for i = 0 to k - 1 do
                  let l = ln.(i) in
                  if subb ~trap:true ra.(l) rb.(l) rd l lpsw.(l) then
                    trap l pc Trap.Overflow
                done;
                settle ln k)
        | Subb ->
            Body (fun ln k ->
                mc.(n) <- mc.(n) + k;
                for i = 0 to k - 1 do
                  let l = ln.(i) in
                  ignore (subb ~trap:false ra.(l) rb.(l) rd l lpsw.(l))
                done;
                k)
        | Shadd sh when trap_ov ->
            Body (fun ln k ->
                mc.(n) <- mc.(n) + k;
                for i = 0 to k - 1 do
                  let l = ln.(i) in
                  if shadd ~trap:true sh ra.(l) rb.(l) rd l lpsw.(l) then
                    trap l pc Trap.Overflow
                done;
                settle ln k)
        | Shadd sh ->
            Body (fun ln k ->
                mc.(n) <- mc.(n) + k;
                for i = 0 to k - 1 do
                  let l = ln.(i) in
                  ignore (shadd ~trap:false sh ra.(l) rb.(l) rd l lpsw.(l))
                done;
                k)
        | And ->
            Body (fun ln k ->
                mc.(n) <- mc.(n) + k;
                for i = 0 to k - 1 do
                  let l = ln.(i) in
                  rd.(l) <- ra.(l) land rb.(l)
                done;
                k)
        | Or ->
            Body (fun ln k ->
                mc.(n) <- mc.(n) + k;
                for i = 0 to k - 1 do
                  let l = ln.(i) in
                  rd.(l) <- ra.(l) lor rb.(l)
                done;
                k)
        | Xor ->
            Body (fun ln k ->
                mc.(n) <- mc.(n) + k;
                for i = 0 to k - 1 do
                  let l = ln.(i) in
                  rd.(l) <- ra.(l) lxor rb.(l)
                done;
                k)
        | Andcm ->
            Body (fun ln k ->
                mc.(n) <- mc.(n) + k;
                for i = 0 to k - 1 do
                  let l = ln.(i) in
                  rd.(l) <- andcm ra.(l) rb.(l)
                done;
                k))
    | Ds { a; b; t } ->
        let ra = rf.(src a) and rb = rf.(src b) and rd = rf.(dst t) in
        Body (fun ln k ->
            mc.(n) <- mc.(n) + k;
            for i = 0 to k - 1 do
              let l = ln.(i) in
              ds ra.(l) rb.(l) rd l lpsw.(l)
            done;
            k)
    | Addi { imm = x; a; t; trap_ov } ->
        let ra = rf.(src a) and rd = rf.(dst t) and x = imm x in
        if trap_ov then
          Body (fun ln k ->
              mc.(n) <- mc.(n) + k;
              for i = 0 to k - 1 do
                let l = ln.(i) in
                if add ~trap:true ra.(l) x rd l lpsw.(l) then
                  trap l pc Trap.Overflow
              done;
              settle ln k)
        else
          Body (fun ln k ->
              mc.(n) <- mc.(n) + k;
              for i = 0 to k - 1 do
                let l = ln.(i) in
                ignore (add ~trap:false ra.(l) x rd l lpsw.(l))
              done;
              k)
    | Subi { imm = x; a; t; trap_ov } ->
        let ra = rf.(src a) and rd = rf.(dst t) and x = imm x in
        if trap_ov then
          Body (fun ln k ->
              mc.(n) <- mc.(n) + k;
              for i = 0 to k - 1 do
                let l = ln.(i) in
                if sub ~trap:true x ra.(l) rd l lpsw.(l) then
                  trap l pc Trap.Overflow
              done;
              settle ln k)
        else
          Body (fun ln k ->
              mc.(n) <- mc.(n) + k;
              for i = 0 to k - 1 do
                let l = ln.(i) in
                ignore (sub ~trap:false x ra.(l) rd l lpsw.(l))
              done;
              k)
    | Comclr { cond; a; b; t } ->
        let ra = rf.(src a) and rb = rf.(src b) and rd = rf.(dst t) in
        let f = cond_fn cond in
        Term (fun ln k ->
            mc.(n) <- mc.(n) + k;
            for i = 0 to k - 1 do
              let l = ln.(i) in
              if comclr f ra.(l) rb.(l) rd l then lnull.(l) <- true;
              lpc.(l) <- pc + 1
            done;
            k)
    | Comiclr { cond; imm = x; a; t } ->
        let ra = rf.(src a) and rd = rf.(dst t) and x = imm x in
        let f = cond_fn cond in
        Term (fun ln k ->
            mc.(n) <- mc.(n) + k;
            for i = 0 to k - 1 do
              let l = ln.(i) in
              if comclr f x ra.(l) rd l then lnull.(l) <- true;
              lpc.(l) <- pc + 1
            done;
            k)
    | Extr { signed; r = s; pos; len; t; cond } -> (
        let rs = rf.(src s) and rd = rf.(dst t) and f = cond_fn cond in
        match (cond, signed) with
        | Never, true ->
            Body (fun ln k ->
                mc.(n) <- mc.(n) + k;
                for i = 0 to k - 1 do
                  let l = ln.(i) in
                  rd.(l) <- extrs ~pos ~len rs.(l)
                done;
                k)
        | Never, false ->
            Body (fun ln k ->
                mc.(n) <- mc.(n) + k;
                for i = 0 to k - 1 do
                  let l = ln.(i) in
                  rd.(l) <- extru ~pos ~len rs.(l)
                done;
                k)
        | _, true ->
            Term (fun ln k ->
                mc.(n) <- mc.(n) + k;
                for i = 0 to k - 1 do
                  let l = ln.(i) in
                  let x = extrs ~pos ~len rs.(l) in
                  rd.(l) <- x;
                  if f x 0 then lnull.(l) <- true;
                  lpc.(l) <- pc + 1
                done;
                k)
        | _, false ->
            Term (fun ln k ->
                mc.(n) <- mc.(n) + k;
                for i = 0 to k - 1 do
                  let l = ln.(i) in
                  let x = extru ~pos ~len rs.(l) in
                  rd.(l) <- x;
                  if f x 0 then lnull.(l) <- true;
                  lpc.(l) <- pc + 1
                done;
                k))
    | Zdep { r = s; pos; len; t } ->
        let rs = rf.(src s) and rd = rf.(dst t) in
        Body (fun ln k ->
            mc.(n) <- mc.(n) + k;
            for i = 0 to k - 1 do
              let l = ln.(i) in
              rd.(l) <- zdep ~pos ~len rs.(l)
            done;
            k)
    | Shd { a; b; sa; t } ->
        let ra = rf.(src a) and rb = rf.(src b) and rd = rf.(dst t) in
        Body (fun ln k ->
            mc.(n) <- mc.(n) + k;
            for i = 0 to k - 1 do
              let l = ln.(i) in
              rd.(l) <- shd ~sa ra.(l) rb.(l)
            done;
            k)
    | Ldil { imm = x; t } -> load_const n t (imm x)
    | Ldaddr { target; t } -> load_const n t (wrap target)
    | Ldo { imm = x; base; t } ->
        let rb = rf.(src base) and rd = rf.(dst t) and x = imm x in
        Body (fun ln k ->
            mc.(n) <- mc.(n) + k;
            for i = 0 to k - 1 do
              let l = ln.(i) in
              rd.(l) <- wrap (rb.(l) + x)
            done;
            k)
    | Ldw { disp; base; t } ->
        let rb = rf.(src base) and rd = rf.(dst t) and disp = imm disp in
        Body (fun ln k ->
            mc.(n) <- mc.(n) + k;
            for i = 0 to k - 1 do
              let l = ln.(i) in
              let addr = wrap (rb.(l) + disp) in
              if mem_ok ~words:mem_words addr then
                rd.(l) <- row_get lmem.(l) (addr lsr 2)
              else trap l pc (mem_fault addr)
            done;
            settle ln k)
    | Stw { r = s; disp; base } ->
        let rs = rf.(src s) and rb = rf.(src base) and disp = imm disp in
        Body (fun ln k ->
            mc.(n) <- mc.(n) + k;
            for i = 0 to k - 1 do
              let l = ln.(i) in
              let addr = wrap (rb.(l) + disp) in
              if mem_ok ~words:mem_words addr then begin
                if Array.length lmem.(l) = 0 then
                  lmem.(l) <- Array.make mem_words 0;
                lmem.(l).(addr lsr 2) <- rs.(l)
              end
              else trap l pc (mem_fault addr)
            done;
            settle ln k)
    | Comb { cond; a; b; target; n = _ } ->
        let ra = rf.(src a) and rb = rf.(src b) and f = cond_fn cond in
        Term (fun ln k ->
            mc.(n) <- mc.(n) + k;
            for i = 0 to k - 1 do
              let l = ln.(i) in
              if f ra.(l) rb.(l) then jump l pc target else lpc.(l) <- pc + 1
            done;
            settle ln k)
    | Comib { cond; imm = x; a; target; n = _ } ->
        let ra = rf.(src a) and x = imm x and f = cond_fn cond in
        Term (fun ln k ->
            mc.(n) <- mc.(n) + k;
            for i = 0 to k - 1 do
              let l = ln.(i) in
              if f x ra.(l) then jump l pc target else lpc.(l) <- pc + 1
            done;
            settle ln k)
    | Addib { cond; imm = x; a; target; n = _ } ->
        let ra = rf.(src a) and rd = rf.(dst a) and x = imm x in
        let f = cond_fn cond in
        Term (fun ln k ->
            mc.(n) <- mc.(n) + k;
            for i = 0 to k - 1 do
              let l = ln.(i) in
              if addib f ra.(l) x rd l then jump l pc target
              else lpc.(l) <- pc + 1
            done;
            settle ln k)
    | B { target; n = _ } ->
        Term (fun ln k ->
            mc.(n) <- mc.(n) + k;
            for i = 0 to k - 1 do
              jump ln.(i) pc target
            done;
            settle ln k)
    | Bl { target; t; n = _ } ->
        let rd = rf.(dst t) in
        Term (fun ln k ->
            mc.(n) <- mc.(n) + k;
            for i = 0 to k - 1 do
              let l = ln.(i) in
              rd.(l) <- pc + 1;
              jump l pc target
            done;
            settle ln k)
    | Blr { x; t; n = _ } ->
        let rx = rf.(src x) and rd = rf.(dst t) in
        Term (fun ln k ->
            mc.(n) <- mc.(n) + k;
            for i = 0 to k - 1 do
              let l = ln.(i) in
              jump l pc (blr ~pc rx l rd l)
            done;
            settle ln k)
    | Bv { x; base; n = _ } ->
        let rx = rf.(src x) and rb = rf.(src base) in
        Term (fun ln k ->
            mc.(n) <- mc.(n) + k;
            for i = 0 to k - 1 do
              let l = ln.(i) in
              let target = bv rx.(l) rb.(l) in
              if target = halt then begin
                incr taken;
                retire l Halted (pc + 1)
              end
              else jump l pc target
            done;
            settle ln k)
    | Break { code } ->
        Term (fun ln k ->
            mc.(n) <- mc.(n) + k;
            for i = 0 to k - 1 do
              trap ln.(i) pc (Trap.Break code)
            done;
            settle ln k)
    | Nop ->
        Body (fun _ k ->
            mc.(n) <- mc.(n) + k;
            k)
  in
  (* [ops] is the single-instruction step used when some cohort lane's
     fuel cannot cover the whole block. [Sys.opaque_identity] keeps each
     wrapper a closure of its own, as in {!Engine}. *)
  let { Sem.ops; blocks; blen; fill } =
    Sem.thread len compile
      ~dummy:(fun _ _ -> 0)
      ~step:(fun pc b ->
        Sys.opaque_identity (fun ln k ->
            let k' = b ln k in
            for i = 0 to k' - 1 do
              lpc.(ln.(i)) <- pc + 1
            done;
            k'))
      ~chain:(fun b next ->
        Sys.opaque_identity (fun ln k ->
            let k' = b ln k in
            if k' = 0 then 0 else next ln k'))
  in
  let c_lanes = Obs.Counter.create () in
  let c_trapped = Obs.Counter.create () in
  let c_dispatches = Obs.Counter.create () in
  (match obs with
  | None -> ()
  | Some reg ->
      let reg_c ?help name c =
        Obs.Registry.register_counter reg ?help ~labels:obs_labels name c
      in
      reg_c ~help:"Batch-engine lanes run" "hppa_machine_batch_lanes_total"
        c_lanes;
      reg_c ~help:"Batch-engine lanes that ended in a trap"
        "hppa_machine_batch_lanes_trapped_total" c_trapped;
      reg_c ~help:"Batch-engine cohort dispatches"
        "hppa_machine_batch_dispatches_total" c_dispatches);
  (* Scratch arrays for the scheduler: the compact active-lane set and
     the current cohort. *)
  let act = Array.make lanes 0 in
  let coh = Array.make lanes 0 in
  (* Run a cohort of [k] lanes from [pc], where [minfuel] is the least
     fuel any of them has left. While the cohort is [whole] (every
     running lane is in it) and after a dispatch its survivors agree on
     one PC with no nullify pending and fuel left, the next min-PC round
     would gather exactly them again: dispatch them straight away. The
     cycles run are charged to the survivors once, at the end. *)
  let run_cohort pc k minfuel ~whole =
    let pc = ref pc and k = ref k and ran = ref 0 and more = ref true in
    while !more do
      let p = !pc in
      (* The first dispatch at [p] translates its run. *)
      if blen.(p) = Sem.untranslated then fill p;
      let bl = blen.(p) in
      incr disp;
      entry := p;
      ahead := !ran;
      (* When some lane cannot cover the block, single-step the whole
         cohort (observationally identical, only slower). *)
      let k' =
        if minfuel - !ran >= bl then begin
          ran := !ran + bl;
          blocks.(p) coh !k
        end
        else begin
          ran := !ran + 1;
          ops.(p) coh !k
        end
      in
      more := whole && k' = !k && minfuel > !ran;
      if !more then begin
        let p' = lpc.(coh.(0)) in
        more := p' < len;
        let i = ref 0 in
        while !more && !i < k' do
          let l = coh.(!i) in
          if lpc.(l) <> p' || lnull.(l) then more := false;
          incr i
        done;
        pc := p'
      end;
      k := k'
    done;
    for i = 0 to !k - 1 do
      let l = coh.(i) in
      lcyc.(l) <- lcyc.(l) + !ran
    done
  in
  (* The min-PC cohort scheduler. Mirrors the scalar driver's ordering
     per lane: halt before fuel, fuel before the bounds check, bounds
     before the nullify shadow. A lane's remaining fuel is the call's
     [budget] (max_int when unlimited) less its cycles. Each round
     gathers the lanes at the lowest PC, runs them, then drops retired
     lanes while finding the next round's lowest PC. *)
  let go width budget =
    nulls := 0;
    taken := 0;
    disp := 0;
    let na = ref 0 and next = ref max_int in
    for l = 0 to width - 1 do
      if lstatus.(l) = Running then begin
        act.(!na) <- l;
        incr na;
        if lpc.(l) < !next then next := lpc.(l)
      end
    done;
    while !na > 0 do
      let minpc = !next in
      if minpc < 0 then
        (* Only reachable from a caller-planted negative PC; the halt
           sentinel retires lanes inside the BV closure. Mirror the
           scalar driver's (Halted, exit_pc = 0). *)
        for i = 0 to !na - 1 do
          let l = act.(i) in
          if lpc.(l) < 0 then begin
            lstatus.(l) <- Halted;
            lpc.(l) <- 0
          end
        done
      else begin
        let k = ref 0 and minfuel = ref max_int in
        for i = 0 to !na - 1 do
          let l = act.(i) in
          if lpc.(l) = minpc then begin
            let f = budget - lcyc.(l) in
            if f = 0 then lstatus.(l) <- Out_of_fuel
            else if minpc >= len then begin
              lstatus.(l) <- Trapped;
              ltrap.(l) <- Trap.Bad_pc minpc
            end
            else if lnull.(l) then begin
              (* Consume the nullified cycle; the lane rejoins at pc+1. *)
              lnull.(l) <- false;
              lcyc.(l) <- lcyc.(l) + 1;
              incr nulls;
              lpc.(l) <- minpc + 1
            end
            else begin
              coh.(!k) <- l;
              incr k;
              if f < !minfuel then minfuel := f
            end
          end
        done;
        if !k > 0 then run_cohort minpc !k !minfuel ~whole:(!k = !na)
      end;
      (* Drop retired lanes from the active set. *)
      let j = ref 0 in
      next := max_int;
      for i = 0 to !na - 1 do
        let l = act.(i) in
        if lstatus.(l) = Running then begin
          act.(!j) <- l;
          incr j;
          if lpc.(l) < !next then next := lpc.(l)
        end
      done;
      na := !j
    done;
    (* Settle aggregate statistics, like the scalar engine's exit. *)
    Stats.settle tally ~nullified:!nulls ~taken:!taken;
    let ntrapped = ref 0 in
    for l = 0 to width - 1 do
      if lstatus.(l) = Trapped then begin
        Stats.record_trap stats (Trap.name ltrap.(l));
        incr ntrapped
      end
    done;
    Obs.Counter.add c_lanes width;
    if !ntrapped > 0 then Obs.Counter.add c_trapped !ntrapped;
    Obs.Counter.add c_dispatches !disp
  in
  {
    prog;
    lanes;
    mem_words;
    rf;
    lmem;
    lpsw;
    lnull;
    lpc;
    lcyc;
    lstatus;
    ltrap;
    width = 0;
    stats;
    c_lanes;
    c_trapped;
    c_dispatches;
    go;
  }

let lanes t = t.lanes
let width t = t.width
let program t = t.prog
let stats t = t.stats

let counters t =
  {
    lanes_run = Obs.Counter.get t.c_lanes;
    lanes_trapped = Obs.Counter.get t.c_trapped;
    dispatches = Obs.Counter.get t.c_dispatches;
  }

let check_lane t lane =
  if lane < 0 || lane >= t.lanes then
    invalid_arg (Printf.sprintf "Engine_batch: lane %d out of range" lane)

let get_reg t ~lane rg =
  check_lane t lane;
  Int32.of_int t.rf.(Reg.to_int rg).(lane)

let set_reg t ~lane rg v =
  check_lane t lane;
  let i = Reg.to_int rg in
  if i <> 0 then t.rf.(i).(lane) <- Sem.wrap (Int32.to_int v)

let carry t ~lane = check_lane t lane; t.lpsw.(lane).carry
let v_bit t ~lane = check_lane t lane; t.lpsw.(lane).v
let pc t ~lane = check_lane t lane; t.lpc.(lane)
let cycles t ~lane = check_lane t lane; t.lcyc.(lane)

let outcome t ~lane =
  check_lane t lane;
  match t.lstatus.(lane) with
  | Out_of_fuel -> Cpu.Fuel_exhausted
  | Trapped -> Cpu.Trapped t.ltrap.(lane)
  | Running | Halted -> Cpu.Halted

let load_word t ~lane (addr : int32) =
  check_lane t lane;
  if Int32.logand addr 3l <> 0l then Error (Trap.Unaligned addr)
  else
    let i = Word.to_int_u addr / 4 in
    if i >= t.mem_words then Error (Trap.Bad_address addr)
    else Ok (Int32.of_int (row_get t.lmem.(lane) i))

let call ?(fuel = 1_000_000) t name ~args =
  let entry =
    match Program.symbol t.prog name with
    | Some a -> a
    | None ->
        invalid_arg (Printf.sprintf "Engine_batch.call: no entry point %S" name)
  in
  let w = Array.length args in
  if w = 0 then invalid_arg "Engine_batch.call: empty batch";
  if w > t.lanes then
    invalid_arg
      (Printf.sprintf "Engine_batch.call: %d arg sets for %d lanes" w t.lanes);
  let nargs = Array.length Cpu.arg_regs in
  if Array.exists (fun largs -> List.length largs > nargs) args then
    invalid_arg
      (Printf.sprintf "Engine_batch.call: more than %d arguments" nargs);
  let rp = Reg.to_int Reg.rp and mrp = Reg.to_int Reg.mrp in
  Array.iteri
    (fun l largs ->
      List.iteri
        (fun i v ->
          t.rf.(Reg.to_int Cpu.arg_regs.(i)).(l) <- Sem.wrap (Int32.to_int v))
        largs;
      t.rf.(rp).(l) <- Sem.halt;
      t.rf.(mrp).(l) <- Sem.halt;
      t.lnull.(l) <- false;
      t.lstatus.(l) <- Running;
      t.lpc.(l) <- entry;
      t.lcyc.(l) <- 0)
    args;
  t.width <- w;
  t.go w (if fuel < 0 then max_int else fuel)
