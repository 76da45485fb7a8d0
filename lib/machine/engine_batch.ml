(* Batched (structure-of-arrays) execution engine.

   The scalar engine ({!Engine}) pays its translation once but still
   dispatches every closure once per instruction per request. For the
   paper's kernels — tiny straight-line or loop bodies — that dispatch
   dominates the arithmetic. This engine translates the program once
   into closures that each execute one instruction for a whole *cohort*
   of lanes, so the closure call, the mnemonic bookkeeping and the
   branch-target checks are paid once per instruction per batch.

   Layout: register state is one unboxed [int array] per architectural
   register ([rf.(reg).(lane)]), carrying the same unsigned 32-bit
   representation as the scalar engine; slot 0 is the hardwired zero and
   slot 32 the write sink for r0 targets. PSW bits, nullify flags, PCs,
   fuel and cycle counters are parallel per-lane arrays. Per-lane memory
   images are allocated only when the program actually loads or stores.

   Divergence: lanes are scheduled as min-PC cohorts. Each round the
   scheduler gathers every running lane at the lowest PC and dispatches
   the superblock (or a single instruction when some lane's fuel cannot
   cover the block) for all of them at once; lanes that branch apart
   simply land in different future cohorts and reconverge by PC order.
   Because lanes never share state, cohort order cannot affect any
   lane's result — each lane observes exactly the scalar semantics.

   Traps and fuel are per-lane: a compiled closure records a trapping
   lane's [Trap.t] (PC left on the trapping instruction, the instruction
   itself counted executed, like the scalar engine) and compacts it out
   of the cohort so its neighbours proceed; fuel exhaustion and the halt
   sentinel likewise retire single lanes. Statistics parity: per-lane
   cycle counters match the scalar engine's cycle accounting lane for
   lane, and the aggregate mnemonic histogram equals the sum of the
   corresponding scalar runs. Instances are not thread-safe; give each
   domain its own. *)

module Word = Hppa_word.Word
module Obs = Hppa_obs.Obs

let u32 = 0xffff_ffff
let sign = 0x8000_0000

(* Unsigned representation -> signed value, as a native int. *)
let sext v = (v lxor sign) - sign

(* Lane status codes. *)
let s_running = 0
let s_halted = 1
let s_fuel = 2
let s_trapped = 3

type counters = { lanes_run : int; lanes_trapped : int; dispatches : int }

type t = {
  prog : Program.resolved;
  lanes : int;
  mem_words : int;
  rf : int array array;  (* 33 registers x lanes; .(0) zero, .(32) sink *)
  lmem : int array array;  (* lanes x mem_words, [||] when unused *)
  lcarry : bool array;
  lv : bool array;
  lnull : bool array;
  lpc : int array;
  lfuel : int array;  (* negative = infinite, like the scalar engine *)
  lcyc : int array;  (* cycles of the current/last run *)
  lstatus : int array;
  ltrap : Trap.t array;
  mutable width : int;  (* lanes active in the last call *)
  stats : Stats.t;
  c_lanes : Obs.Counter.t;
  c_trapped : Obs.Counter.t;
  c_dispatches : Obs.Counter.t;
  go : int -> unit;  (* run [width] lanes from their per-lane PCs *)
}

(* A compiled instruction executes one opcode for lanes[0..k-1] and
   returns the surviving count: trapping (or halting) lanes are recorded
   and compacted out in place. [Body] never touches per-lane PCs — its
   successor is implicit; [Term] writes each survivor's next PC. *)
type compiled =
  | Body of (int array -> int -> int)
  | Term of (int array -> int -> int)

let create ?(mem_bytes = 65536) ?obs ?(obs_labels = []) ~lanes
    (prog : Program.resolved) =
  if lanes <= 0 then invalid_arg "Engine_batch.create: lanes must be positive";
  let code = Program.code prog in
  let len = Array.length code in
  let mem_words = (mem_bytes + 3) / 4 in
  let uses_mem =
    Array.exists
      (function Insn.Ldw _ | Insn.Stw _ -> true | _ -> false)
      code
  in
  let lmem =
    if uses_mem then Array.init lanes (fun _ -> Array.make mem_words 0)
    else [||]
  in
  let rf = Array.init 33 (fun _ -> Array.make lanes 0) in
  let lcarry = Array.make lanes false in
  let lv = Array.make lanes false in
  let lnull = Array.make lanes false in
  let lpc = Array.make lanes 0 in
  let lfuel = Array.make lanes 0 in
  let lcyc = Array.make lanes 0 in
  let lstatus = Array.make lanes s_halted in
  let ltrap = Array.make lanes (Trap.Break 0) in
  (* Interned mnemonics: closures count cohort sizes into a dense array. *)
  let mid, names = Engine.intern_mnemonics code in
  let mc = Array.make (max (Array.length names) 1) 0 in
  (* Per-run aggregates, reset by [go]. *)
  let nulls = ref 0 and taken = ref 0 and disp = ref 0 in
  let trap l pcv tr =
    lstatus.(l) <- s_trapped;
    ltrap.(l) <- tr;
    lpc.(l) <- pcv
  in
  let ri rg = Reg.to_int rg in
  let wi rg = let i = Reg.to_int rg in if i = 0 then 32 else i in
  let iu (imm : int32) = Int32.to_int imm land u32 in
  let compile pc (insn : int Insn.t) : compiled =
    let n = mid.(pc) in
    match insn with
    | Alu { op; a; b; t = d; trap_ov } -> (
        let ra = rf.(ri a) and rb = rf.(ri b) and rd = rf.(wi d) in
        match op with
        | Add ->
            if trap_ov then
              Body (fun ln k ->
                  mc.(n) <- mc.(n) + k;
                  let j = ref 0 in
                  for i = 0 to k - 1 do
                    let l = ln.(i) in
                    lcyc.(l) <- lcyc.(l) + 1;
                    let av = ra.(l) and bv = rb.(l) in
                    let w = av + bv in
                    lcarry.(l) <- w > u32;
                    lv.(l) <- false;
                    let s = w land u32 in
                    if
                      (av lxor bv) land sign = 0
                      && (av lxor s) land sign <> 0
                    then trap l pc Trap.Overflow
                    else begin
                      rd.(l) <- s;
                      ln.(!j) <- l;
                      incr j
                    end
                  done;
                  !j)
            else
              Body (fun ln k ->
                  mc.(n) <- mc.(n) + k;
                  for i = 0 to k - 1 do
                    let l = ln.(i) in
                    lcyc.(l) <- lcyc.(l) + 1;
                    let w = ra.(l) + rb.(l) in
                    lcarry.(l) <- w > u32;
                    lv.(l) <- false;
                    rd.(l) <- w land u32
                  done;
                  k)
        | Addc ->
            if trap_ov then
              Body (fun ln k ->
                  mc.(n) <- mc.(n) + k;
                  let j = ref 0 in
                  for i = 0 to k - 1 do
                    let l = ln.(i) in
                    lcyc.(l) <- lcyc.(l) + 1;
                    let av = ra.(l) and bv = rb.(l) in
                    let ci = if lcarry.(l) then 1 else 0 in
                    let w = av + bv + ci in
                    lcarry.(l) <- w > u32;
                    let wide = sext av + sext bv + ci in
                    if wide < -0x8000_0000 || wide > 0x7fff_ffff then
                      trap l pc Trap.Overflow
                    else begin
                      rd.(l) <- w land u32;
                      ln.(!j) <- l;
                      incr j
                    end
                  done;
                  !j)
            else
              Body (fun ln k ->
                  mc.(n) <- mc.(n) + k;
                  for i = 0 to k - 1 do
                    let l = ln.(i) in
                    lcyc.(l) <- lcyc.(l) + 1;
                    let w =
                      ra.(l) + rb.(l) + (if lcarry.(l) then 1 else 0)
                    in
                    lcarry.(l) <- w > u32;
                    rd.(l) <- w land u32
                  done;
                  k)
        | Sub ->
            if trap_ov then
              Body (fun ln k ->
                  mc.(n) <- mc.(n) + k;
                  let j = ref 0 in
                  for i = 0 to k - 1 do
                    let l = ln.(i) in
                    lcyc.(l) <- lcyc.(l) + 1;
                    let av = ra.(l) and bv = rb.(l) in
                    let w = av - bv in
                    lcarry.(l) <- w >= 0;
                    lv.(l) <- false;
                    let dv = w land u32 in
                    if
                      (av lxor bv) land sign <> 0
                      && (av lxor dv) land sign <> 0
                    then trap l pc Trap.Overflow
                    else begin
                      rd.(l) <- dv;
                      ln.(!j) <- l;
                      incr j
                    end
                  done;
                  !j)
            else
              Body (fun ln k ->
                  mc.(n) <- mc.(n) + k;
                  for i = 0 to k - 1 do
                    let l = ln.(i) in
                    lcyc.(l) <- lcyc.(l) + 1;
                    let w = ra.(l) - rb.(l) in
                    lcarry.(l) <- w >= 0;
                    lv.(l) <- false;
                    rd.(l) <- w land u32
                  done;
                  k)
        | Subb ->
            if trap_ov then
              Body (fun ln k ->
                  mc.(n) <- mc.(n) + k;
                  let j = ref 0 in
                  for i = 0 to k - 1 do
                    let l = ln.(i) in
                    lcyc.(l) <- lcyc.(l) + 1;
                    let av = ra.(l) and bv = rb.(l) in
                    let bw = if lcarry.(l) then 0 else 1 in
                    let w = av - bv - bw in
                    lcarry.(l) <- w >= 0;
                    let wide = sext av - sext bv - bw in
                    if wide < -0x8000_0000 || wide > 0x7fff_ffff then
                      trap l pc Trap.Overflow
                    else begin
                      rd.(l) <- w land u32;
                      ln.(!j) <- l;
                      incr j
                    end
                  done;
                  !j)
            else
              Body (fun ln k ->
                  mc.(n) <- mc.(n) + k;
                  for i = 0 to k - 1 do
                    let l = ln.(i) in
                    lcyc.(l) <- lcyc.(l) + 1;
                    let w =
                      ra.(l) - rb.(l) - (if lcarry.(l) then 0 else 1)
                    in
                    lcarry.(l) <- w >= 0;
                    rd.(l) <- w land u32
                  done;
                  k)
        | Shadd sh ->
            if trap_ov then
              Body (fun ln k ->
                  mc.(n) <- mc.(n) + k;
                  let j = ref 0 in
                  for i = 0 to k - 1 do
                    let l = ln.(i) in
                    lcyc.(l) <- lcyc.(l) + 1;
                    let av = ra.(l) and bv = rb.(l) in
                    let shifted = (av lsl sh) land u32 in
                    let w = shifted + bv in
                    lcarry.(l) <- w > u32;
                    let top = sext av asr (31 - sh) in
                    let shift_ok = top = 0 || top = -1 in
                    let s = w land u32 in
                    let add_ov =
                      (shifted lxor bv) land sign = 0
                      && (shifted lxor s) land sign <> 0
                    in
                    if (not shift_ok) || add_ov then trap l pc Trap.Overflow
                    else begin
                      rd.(l) <- s;
                      ln.(!j) <- l;
                      incr j
                    end
                  done;
                  !j)
            else
              Body (fun ln k ->
                  mc.(n) <- mc.(n) + k;
                  for i = 0 to k - 1 do
                    let l = ln.(i) in
                    lcyc.(l) <- lcyc.(l) + 1;
                    let w = ((ra.(l) lsl sh) land u32) + rb.(l) in
                    lcarry.(l) <- w > u32;
                    rd.(l) <- w land u32
                  done;
                  k)
        | And ->
            Body (fun ln k ->
                mc.(n) <- mc.(n) + k;
                for i = 0 to k - 1 do
                  let l = ln.(i) in
                  lcyc.(l) <- lcyc.(l) + 1;
                  rd.(l) <- ra.(l) land rb.(l)
                done;
                k)
        | Or ->
            Body (fun ln k ->
                mc.(n) <- mc.(n) + k;
                for i = 0 to k - 1 do
                  let l = ln.(i) in
                  lcyc.(l) <- lcyc.(l) + 1;
                  rd.(l) <- ra.(l) lor rb.(l)
                done;
                k)
        | Xor ->
            Body (fun ln k ->
                mc.(n) <- mc.(n) + k;
                for i = 0 to k - 1 do
                  let l = ln.(i) in
                  lcyc.(l) <- lcyc.(l) + 1;
                  rd.(l) <- ra.(l) lxor rb.(l)
                done;
                k)
        | Andcm ->
            Body (fun ln k ->
                mc.(n) <- mc.(n) + k;
                for i = 0 to k - 1 do
                  let l = ln.(i) in
                  lcyc.(l) <- lcyc.(l) + 1;
                  rd.(l) <- ra.(l) land lnot rb.(l) land u32
                done;
                k))
    | Ds { a; b; t = d } ->
        let ra = rf.(ri a) and rb = rf.(ri b) and rd = rf.(wi d) in
        Body (fun ln k ->
            mc.(n) <- mc.(n) + k;
            for i = 0 to k - 1 do
              let l = ln.(i) in
              lcyc.(l) <- lcyc.(l) + 1;
              let vb = lv.(l) in
              let rr = ra.(l) - (if vb then 0x1_0000_0000 else 0) in
              let r2 = (2 * rr) + (if lcarry.(l) then 1 else 0) in
              let r' = if vb then r2 + rb.(l) else r2 - rb.(l) in
              lv.(l) <- r' < 0;
              lcarry.(l) <- r' >= 0;
              rd.(l) <- r' land u32
            done;
            k)
    | Addi { imm; a; t = d; trap_ov } ->
        let ra = rf.(ri a) and rd = rf.(wi d) and imm = iu imm in
        if trap_ov then
          Body (fun ln k ->
              mc.(n) <- mc.(n) + k;
              let j = ref 0 in
              for i = 0 to k - 1 do
                let l = ln.(i) in
                lcyc.(l) <- lcyc.(l) + 1;
                let av = ra.(l) in
                let w = av + imm in
                lcarry.(l) <- w > u32;
                lv.(l) <- false;
                let s = w land u32 in
                if (av lxor imm) land sign = 0 && (av lxor s) land sign <> 0
                then trap l pc Trap.Overflow
                else begin
                  rd.(l) <- s;
                  ln.(!j) <- l;
                  incr j
                end
              done;
              !j)
        else
          Body (fun ln k ->
              mc.(n) <- mc.(n) + k;
              for i = 0 to k - 1 do
                let l = ln.(i) in
                lcyc.(l) <- lcyc.(l) + 1;
                let w = ra.(l) + imm in
                lcarry.(l) <- w > u32;
                lv.(l) <- false;
                rd.(l) <- w land u32
              done;
              k)
    | Subi { imm; a; t = d; trap_ov } ->
        (* SUBI computes imm - a: the immediate is the left operand. *)
        let ra = rf.(ri a) and rd = rf.(wi d) and imm = iu imm in
        if trap_ov then
          Body (fun ln k ->
              mc.(n) <- mc.(n) + k;
              let j = ref 0 in
              for i = 0 to k - 1 do
                let l = ln.(i) in
                lcyc.(l) <- lcyc.(l) + 1;
                let av = ra.(l) in
                let w = imm - av in
                lcarry.(l) <- w >= 0;
                lv.(l) <- false;
                let dv = w land u32 in
                if (imm lxor av) land sign <> 0 && (imm lxor dv) land sign <> 0
                then trap l pc Trap.Overflow
                else begin
                  rd.(l) <- dv;
                  ln.(!j) <- l;
                  incr j
                end
              done;
              !j)
        else
          Body (fun ln k ->
              mc.(n) <- mc.(n) + k;
              for i = 0 to k - 1 do
                let l = ln.(i) in
                lcyc.(l) <- lcyc.(l) + 1;
                let w = imm - ra.(l) in
                lcarry.(l) <- w >= 0;
                lv.(l) <- false;
                rd.(l) <- w land u32
              done;
              k)
    | Comclr { cond; a; b; t = d } ->
        let ra = rf.(ri a) and rb = rf.(ri b) and rd = rf.(wi d) in
        let f = Engine.cond_fn cond in
        Term (fun ln k ->
            mc.(n) <- mc.(n) + k;
            for i = 0 to k - 1 do
              let l = ln.(i) in
              lcyc.(l) <- lcyc.(l) + 1;
              if f ra.(l) rb.(l) then lnull.(l) <- true;
              rd.(l) <- 0;
              lpc.(l) <- pc + 1
            done;
            k)
    | Comiclr { cond; imm; a; t = d } ->
        let ra = rf.(ri a) and rd = rf.(wi d) and imm = iu imm in
        let f = Engine.cond_fn cond in
        Term (fun ln k ->
            mc.(n) <- mc.(n) + k;
            for i = 0 to k - 1 do
              let l = ln.(i) in
              lcyc.(l) <- lcyc.(l) + 1;
              if f imm ra.(l) then lnull.(l) <- true;
              rd.(l) <- 0;
              lpc.(l) <- pc + 1
            done;
            k)
    | Extr { signed; r = src; pos; len = flen; t = d; cond } -> (
        let rs = rf.(ri src) and rd = rf.(wi d) in
        let sl = 32 - pos - flen and sr = 32 - flen in
        let mask = (1 lsl flen) - 1 in
        match cond with
        | Never ->
            if signed then
              Body (fun ln k ->
                  mc.(n) <- mc.(n) + k;
                  for i = 0 to k - 1 do
                    let l = ln.(i) in
                    lcyc.(l) <- lcyc.(l) + 1;
                    rd.(l) <- sext ((rs.(l) lsl sl) land u32) asr sr land u32
                  done;
                  k)
            else
              Body (fun ln k ->
                  mc.(n) <- mc.(n) + k;
                  for i = 0 to k - 1 do
                    let l = ln.(i) in
                    lcyc.(l) <- lcyc.(l) + 1;
                    rd.(l) <- (rs.(l) lsr pos) land mask
                  done;
                  k)
        | _ ->
            let f = Engine.cond_fn cond in
            if signed then
              Term (fun ln k ->
                  mc.(n) <- mc.(n) + k;
                  for i = 0 to k - 1 do
                    let l = ln.(i) in
                    lcyc.(l) <- lcyc.(l) + 1;
                    let v = sext ((rs.(l) lsl sl) land u32) asr sr land u32 in
                    if f v 0 then lnull.(l) <- true;
                    rd.(l) <- v;
                    lpc.(l) <- pc + 1
                  done;
                  k)
            else
              Term (fun ln k ->
                  mc.(n) <- mc.(n) + k;
                  for i = 0 to k - 1 do
                    let l = ln.(i) in
                    lcyc.(l) <- lcyc.(l) + 1;
                    let v = (rs.(l) lsr pos) land mask in
                    if f v 0 then lnull.(l) <- true;
                    rd.(l) <- v;
                    lpc.(l) <- pc + 1
                  done;
                  k))
    | Zdep { r = src; pos; len = flen; t = d } ->
        let rs = rf.(ri src) and rd = rf.(wi d) in
        let mask = (1 lsl flen) - 1 in
        Body (fun ln k ->
            mc.(n) <- mc.(n) + k;
            for i = 0 to k - 1 do
              let l = ln.(i) in
              lcyc.(l) <- lcyc.(l) + 1;
              rd.(l) <- ((rs.(l) land mask) lsl pos) land u32
            done;
            k)
    | Shd { a; b; sa; t = d } ->
        let ra = rf.(ri a) and rb = rf.(ri b) and rd = rf.(wi d) in
        if sa = 0 then
          Body (fun ln k ->
              mc.(n) <- mc.(n) + k;
              for i = 0 to k - 1 do
                let l = ln.(i) in
                lcyc.(l) <- lcyc.(l) + 1;
                rd.(l) <- rb.(l)
              done;
              k)
        else
          Body (fun ln k ->
              mc.(n) <- mc.(n) + k;
              for i = 0 to k - 1 do
                let l = ln.(i) in
                lcyc.(l) <- lcyc.(l) + 1;
                rd.(l) <-
                  ((ra.(l) lsl (32 - sa)) lor (rb.(l) lsr sa)) land u32
              done;
              k)
    | Ldil { imm; t = d } ->
        let rd = rf.(wi d) and imm = iu imm in
        Body (fun ln k ->
            mc.(n) <- mc.(n) + k;
            for i = 0 to k - 1 do
              let l = ln.(i) in
              lcyc.(l) <- lcyc.(l) + 1;
              rd.(l) <- imm
            done;
            k)
    | Ldo { imm; base; t = d } ->
        let rb = rf.(ri base) and rd = rf.(wi d) and imm = iu imm in
        Body (fun ln k ->
            mc.(n) <- mc.(n) + k;
            for i = 0 to k - 1 do
              let l = ln.(i) in
              lcyc.(l) <- lcyc.(l) + 1;
              rd.(l) <- (rb.(l) + imm) land u32
            done;
            k)
    | Ldw { disp; base; t = d } ->
        let rb = rf.(ri base) and rd = rf.(wi d) and disp = iu disp in
        Body (fun ln k ->
            mc.(n) <- mc.(n) + k;
            let j = ref 0 in
            for i = 0 to k - 1 do
              let l = ln.(i) in
              lcyc.(l) <- lcyc.(l) + 1;
              let addr = (rb.(l) + disp) land u32 in
              if addr land 3 <> 0 then
                trap l pc (Trap.Unaligned (Int32.of_int addr))
              else
                let w = addr lsr 2 in
                if w >= mem_words then
                  trap l pc (Trap.Bad_address (Int32.of_int addr))
                else begin
                  rd.(l) <- lmem.(l).(w);
                  ln.(!j) <- l;
                  incr j
                end
            done;
            !j)
    | Stw { r = src; disp; base } ->
        let rs = rf.(ri src) and rb = rf.(ri base) and disp = iu disp in
        Body (fun ln k ->
            mc.(n) <- mc.(n) + k;
            let j = ref 0 in
            for i = 0 to k - 1 do
              let l = ln.(i) in
              lcyc.(l) <- lcyc.(l) + 1;
              let addr = (rb.(l) + disp) land u32 in
              if addr land 3 <> 0 then
                trap l pc (Trap.Unaligned (Int32.of_int addr))
              else
                let w = addr lsr 2 in
                if w >= mem_words then
                  trap l pc (Trap.Bad_address (Int32.of_int addr))
                else begin
                  lmem.(l).(w) <- rs.(l);
                  ln.(!j) <- l;
                  incr j
                end
            done;
            !j)
    | Ldaddr { target; t = d } ->
        let rd = rf.(wi d) and v = target land u32 in
        Body (fun ln k ->
            mc.(n) <- mc.(n) + k;
            for i = 0 to k - 1 do
              let l = ln.(i) in
              lcyc.(l) <- lcyc.(l) + 1;
              rd.(l) <- v
            done;
            k)
    | Comb { cond; a; b; target; n = _ } ->
        let ra = rf.(ri a) and rb = rf.(ri b) in
        let f = Engine.cond_fn cond in
        if target >= 0 && target < len then
          Term (fun ln k ->
              mc.(n) <- mc.(n) + k;
              for i = 0 to k - 1 do
                let l = ln.(i) in
                lcyc.(l) <- lcyc.(l) + 1;
                if f ra.(l) rb.(l) then begin
                  taken := !taken + 1;
                  lpc.(l) <- target
                end
                else lpc.(l) <- pc + 1
              done;
              k)
        else
          Term (fun ln k ->
              mc.(n) <- mc.(n) + k;
              let j = ref 0 in
              for i = 0 to k - 1 do
                let l = ln.(i) in
                lcyc.(l) <- lcyc.(l) + 1;
                if f ra.(l) rb.(l) then trap l pc (Trap.Bad_pc target)
                else begin
                  lpc.(l) <- pc + 1;
                  ln.(!j) <- l;
                  incr j
                end
              done;
              !j)
    | Comib { cond; imm; a; target; n = _ } ->
        let ra = rf.(ri a) and imm = iu imm in
        let f = Engine.cond_fn cond in
        if target >= 0 && target < len then
          Term (fun ln k ->
              mc.(n) <- mc.(n) + k;
              for i = 0 to k - 1 do
                let l = ln.(i) in
                lcyc.(l) <- lcyc.(l) + 1;
                if f imm ra.(l) then begin
                  taken := !taken + 1;
                  lpc.(l) <- target
                end
                else lpc.(l) <- pc + 1
              done;
              k)
        else
          Term (fun ln k ->
              mc.(n) <- mc.(n) + k;
              let j = ref 0 in
              for i = 0 to k - 1 do
                let l = ln.(i) in
                lcyc.(l) <- lcyc.(l) + 1;
                if f imm ra.(l) then trap l pc (Trap.Bad_pc target)
                else begin
                  lpc.(l) <- pc + 1;
                  ln.(!j) <- l;
                  incr j
                end
              done;
              !j)
    | Addib { cond; imm; a; target; n = _ } ->
        let ra = rf.(ri a) and raw = rf.(wi a) and imm = iu imm in
        let f = Engine.cond_fn cond in
        if target >= 0 && target < len then
          Term (fun ln k ->
              mc.(n) <- mc.(n) + k;
              for i = 0 to k - 1 do
                let l = ln.(i) in
                lcyc.(l) <- lcyc.(l) + 1;
                let sum = (ra.(l) + imm) land u32 in
                raw.(l) <- sum;
                if f sum 0 then begin
                  taken := !taken + 1;
                  lpc.(l) <- target
                end
                else lpc.(l) <- pc + 1
              done;
              k)
        else
          Term (fun ln k ->
              mc.(n) <- mc.(n) + k;
              let j = ref 0 in
              for i = 0 to k - 1 do
                let l = ln.(i) in
                lcyc.(l) <- lcyc.(l) + 1;
                (* The counter is written before the condition decides —
                   it persists even into a Bad_pc trap. *)
                let sum = (ra.(l) + imm) land u32 in
                raw.(l) <- sum;
                if f sum 0 then trap l pc (Trap.Bad_pc target)
                else begin
                  lpc.(l) <- pc + 1;
                  ln.(!j) <- l;
                  incr j
                end
              done;
              !j)
    | B { target; n = _ } ->
        if target >= 0 && target < len then
          Term (fun ln k ->
              mc.(n) <- mc.(n) + k;
              for i = 0 to k - 1 do
                let l = ln.(i) in
                lcyc.(l) <- lcyc.(l) + 1;
                taken := !taken + 1;
                lpc.(l) <- target
              done;
              k)
        else
          Term (fun ln k ->
              mc.(n) <- mc.(n) + k;
              for i = 0 to k - 1 do
                let l = ln.(i) in
                lcyc.(l) <- lcyc.(l) + 1;
                trap l pc (Trap.Bad_pc target)
              done;
              0)
    | Bl { target; t = d; n = _ } ->
        let rd = rf.(wi d) in
        if target >= 0 && target < len then
          Term (fun ln k ->
              mc.(n) <- mc.(n) + k;
              for i = 0 to k - 1 do
                let l = ln.(i) in
                lcyc.(l) <- lcyc.(l) + 1;
                rd.(l) <- pc + 1;
                taken := !taken + 1;
                lpc.(l) <- target
              done;
              k)
        else
          Term (fun ln k ->
              mc.(n) <- mc.(n) + k;
              for i = 0 to k - 1 do
                let l = ln.(i) in
                lcyc.(l) <- lcyc.(l) + 1;
                (* The link is written before the branch traps, like the
                   scalar engine. *)
                rd.(l) <- pc + 1;
                trap l pc (Trap.Bad_pc target)
              done;
              0)
    | Blr { x; t = d; n = _ } ->
        let rx = rf.(ri x) and rd = rf.(wi d) in
        Term (fun ln k ->
            mc.(n) <- mc.(n) + k;
            let j = ref 0 in
            for i = 0 to k - 1 do
              let l = ln.(i) in
              lcyc.(l) <- lcyc.(l) + 1;
              (* Link before reading x (t may be x). *)
              rd.(l) <- pc + 1;
              let tg = pc + 1 + (2 * rx.(l)) in
              if tg < len then begin
                taken := !taken + 1;
                lpc.(l) <- tg;
                ln.(!j) <- l;
                incr j
              end
              else trap l pc (Trap.Bad_pc tg)
            done;
            !j)
    | Bv { x; base; n = _ } ->
        let rx = rf.(ri x) and rb = rf.(ri base) in
        Term (fun ln k ->
            mc.(n) <- mc.(n) + k;
            let j = ref 0 in
            for i = 0 to k - 1 do
              let l = ln.(i) in
              lcyc.(l) <- lcyc.(l) + 1;
              let tw = (rb.(l) + ((2 * rx.(l)) land u32)) land u32 in
              if tw = u32 then begin
                (* Halt sentinel: retire the lane with the PC past this
                   instruction. *)
                taken := !taken + 1;
                lstatus.(l) <- s_halted;
                lpc.(l) <- pc + 1
              end
              else if tw < len then begin
                taken := !taken + 1;
                lpc.(l) <- tw;
                ln.(!j) <- l;
                incr j
              end
              else trap l pc (Trap.Bad_pc tw)
            done;
            !j)
    | Break { code } ->
        Term (fun ln k ->
            mc.(n) <- mc.(n) + k;
            for i = 0 to k - 1 do
              let l = ln.(i) in
              lcyc.(l) <- lcyc.(l) + 1;
              trap l pc (Trap.Break code)
            done;
            0)
    | Nop ->
        Body (fun ln k ->
            mc.(n) <- mc.(n) + k;
            for i = 0 to k - 1 do
              let l = ln.(i) in
              lcyc.(l) <- lcyc.(l) + 1
            done;
            k)
  in
  (* Thread the closures into superblocks exactly like the scalar
     engine: [ops] is the single-instruction step used when some cohort
     lane's fuel cannot cover the whole block, [blen] the block length
     from each entry point. *)
  let dummy _ _ = 0 in
  let ops = Array.make (max len 1) dummy in
  let blocks = Array.make (max len 1) dummy in
  let blen = Array.make (max len 1) 0 in
  for pc = len - 1 downto 0 do
    match compile pc code.(pc) with
    | Term f ->
        ops.(pc) <- f;
        blocks.(pc) <- f;
        blen.(pc) <- 1
    | Body b ->
        let stepped ln k =
          let k' = b ln k in
          for i = 0 to k' - 1 do
            lpc.(ln.(i)) <- pc + 1
          done;
          k'
        in
        ops.(pc) <- stepped;
        if pc = len - 1 then begin
          blocks.(pc) <- stepped;
          blen.(pc) <- 1
        end
        else begin
          let next = blocks.(pc + 1) in
          blocks.(pc) <- (fun ln k ->
              let k' = b ln k in
              if k' = 0 then 0 else next ln k');
          blen.(pc) <- blen.(pc + 1) + 1
        end
  done;
  let stats = Stats.create ?registry:obs ~labels:obs_labels () in
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
  (* The min-PC cohort scheduler. Mirrors the scalar driver's ordering
     per lane: halt before fuel, fuel before the bounds check, bounds
     before the nullify shadow. *)
  let go width =
    nulls := 0;
    taken := 0;
    disp := 0;
    Array.fill mc 0 (Array.length mc) 0;
    let na = ref 0 in
    for l = 0 to width - 1 do
      if lstatus.(l) = s_running then begin
        act.(!na) <- l;
        incr na
      end
    done;
    while !na > 0 do
      let minpc = ref max_int in
      for i = 0 to !na - 1 do
        let p = lpc.(act.(i)) in
        if p < !minpc then minpc := p
      done;
      let minpc = !minpc in
      if minpc < 0 then
        (* Only reachable from a caller-planted negative PC; the halt
           sentinel retires lanes inside the BV closure. Mirror the
           scalar driver's (Halted, exit_pc = 0). *)
        for i = 0 to !na - 1 do
          let l = act.(i) in
          if lpc.(l) < 0 then begin
            lstatus.(l) <- s_halted;
            lpc.(l) <- 0
          end
        done
      else begin
        let k = ref 0 and minfuel = ref max_int in
        for i = 0 to !na - 1 do
          let l = act.(i) in
          if lpc.(l) = minpc then begin
            let f = lfuel.(l) in
            if f = 0 then lstatus.(l) <- s_fuel
            else if minpc >= len then begin
              lstatus.(l) <- s_trapped;
              ltrap.(l) <- Trap.Bad_pc minpc
            end
            else if lnull.(l) then begin
              (* Consume the nullified cycle; the lane rejoins at pc+1. *)
              lnull.(l) <- false;
              lcyc.(l) <- lcyc.(l) + 1;
              incr nulls;
              lpc.(l) <- minpc + 1;
              if f > 0 then lfuel.(l) <- f - 1
            end
            else begin
              coh.(!k) <- l;
              incr k;
              let fe = if f < 0 then max_int else f in
              if fe < !minfuel then minfuel := fe
            end
          end
        done;
        if !k > 0 then begin
          incr disp;
          let bl = blen.(minpc) in
          if !minfuel >= bl then begin
            let k' = blocks.(minpc) coh !k in
            for i = 0 to k' - 1 do
              let l = coh.(i) in
              if lfuel.(l) > 0 then lfuel.(l) <- lfuel.(l) - bl
            done
          end
          else begin
            (* Some lane cannot cover the block: single-step the whole
               cohort (observationally identical, only slower). *)
            let k' = ops.(minpc) coh !k in
            for i = 0 to k' - 1 do
              let l = coh.(i) in
              if lfuel.(l) > 0 then lfuel.(l) <- lfuel.(l) - 1
            done
          end
        end
      end;
      (* Drop retired lanes from the active set. *)
      let j = ref 0 in
      for i = 0 to !na - 1 do
        let l = act.(i) in
        if lstatus.(l) = s_running then begin
          act.(!j) <- l;
          incr j
        end
      done;
      na := !j
    done;
    (* Settle aggregate statistics, like the scalar engine's exit. *)
    for id = 0 to Array.length names - 1 do
      if mc.(id) > 0 then Stats.add_executed stats ~mnemonic:names.(id) mc.(id)
    done;
    Stats.add_nullified stats !nulls;
    Stats.add_branches_taken stats !taken;
    let ntrapped = ref 0 in
    for l = 0 to width - 1 do
      if lstatus.(l) = s_trapped then begin
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
    lcarry;
    lv;
    lnull;
    lpc;
    lfuel;
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
  if i <> 0 then t.rf.(i).(lane) <- Int32.to_int v land u32

let carry t ~lane = check_lane t lane; t.lcarry.(lane)
let v_bit t ~lane = check_lane t lane; t.lv.(lane)
let pc t ~lane = check_lane t lane; t.lpc.(lane)
let cycles t ~lane = check_lane t lane; t.lcyc.(lane)

let outcome t ~lane =
  check_lane t lane;
  match t.lstatus.(lane) with
  | 2 -> Cpu.Fuel_exhausted
  | 3 -> Cpu.Trapped t.ltrap.(lane)
  | _ -> Cpu.Halted

let load_word t ~lane (addr : int32) =
  check_lane t lane;
  if Int32.logand addr 3l <> 0l then Error (Trap.Unaligned addr)
  else
    let i = Word.to_int_u addr / 4 in
    if i >= t.mem_words then Error (Trap.Bad_address addr)
    else if Array.length t.lmem = 0 then Ok 0l
    else Ok (Int32.of_int t.lmem.(lane).(i))

let arg_regs =
  [| Reg.arg0; Reg.arg1; Reg.arg2; Reg.arg3; Reg.ret0; Reg.ret1 |]

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
  let rp = Reg.to_int Reg.rp and mrp = Reg.to_int Reg.mrp in
  Array.iteri
    (fun l largs ->
      if List.length largs > 6 then
        invalid_arg "Engine_batch.call: more than 6 arguments";
      List.iteri
        (fun i v -> t.rf.(Reg.to_int arg_regs.(i)).(l) <- Int32.to_int v land u32)
        largs;
      t.rf.(rp).(l) <- u32;
      t.rf.(mrp).(l) <- u32;
      t.lnull.(l) <- false;
      t.lstatus.(l) <- s_running;
      t.lpc.(l) <- entry;
      t.lfuel.(l) <- fuel;
      t.lcyc.(l) <- 0)
    args;
  t.width <- w;
  t.go w
