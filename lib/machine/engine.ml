(* Closure-threaded execution engine.

   Translate once, execute many: each resolved instruction is compiled
   into one specialized OCaml closure with register indices, immediates,
   condition evaluators and trap checks resolved at compile time, and
   straight-line runs of closures are chained into basic-block
   "superblocks" that execute with direct calls — no re-decode, no
   [Result] allocation, no per-instruction statistics hashing.

   Value representation: registers live in an [int array] as unsigned
   32-bit values (0 .. 2^32-1), so all arithmetic runs unboxed in the
   native 63-bit int with a single [land 0xffff_ffff] to wrap. Slot 0 is
   the hardwired zero; writes aimed at r0 are redirected to a scratch
   slot (index 32) at compile time, which keeps every write a plain
   array store. Signedness is recovered with a two-instruction sign
   extension where a signed compare or overflow check needs it.

   Statistics parity: the reference interpreter records every
   instruction in a string-keyed histogram. The engine increments a
   per-mnemonic-id int counter inside each closure and settles the
   totals into {!Stats} once per run, so cycles, the executed/nullified
   split, taken-branch counts and the histogram are bit-identical to
   the interpreter's at a fraction of the cost.

   The engine implements only the default (no delay slot) branch model
   and supports neither trace hooks nor the icache model; {!Machine.run}
   falls back to the reference interpreter for those. *)

let u32 = 0xffff_ffff
let sign = 0x8000_0000

(* Unsigned representation -> signed value, as a native int. *)
let sext v = (v lxor sign) - sign

(* Raised by a compiled closure; the driver converts it to [Trapped],
   leaving the PC on the trapping instruction like the interpreter. *)
exception Trap_at of int * Trap.t

type st = {
  mutable carry : bool;
  mutable v : bool;
  mutable nullify : bool;
  mutable exit_pc : int;  (* PC to report after a halt (sentinel branch) *)
  mutable null_count : int;
  mutable taken : int;
  mutable block_cycles : int;
      (* cycles dispatched as fused superblocks; a block that traps midway
         is still attributed whole (the run ends there anyway) *)
  mutable step_cycles : int;
      (* single-stepped cycles: fuel-bounded tails and nullify shadows *)
}

(* A compiled instruction: [Body] falls through (and may only leave the
   block by raising a trap); [Term] ends a basic block and returns the
   next PC. Anything that branches, nullifies its successor or always
   traps is a terminator. *)
type compiled = Body of (unit -> unit) | Term of (unit -> int)

let cond_fn (c : Cond.t) : int -> int -> bool =
  match c with
  | Never -> fun _ _ -> false
  | Always -> fun _ _ -> true
  | Eq -> fun a b -> a = b
  | Neq -> fun a b -> a <> b
  | Lt -> fun a b -> sext a < sext b
  | Le -> fun a b -> sext a <= sext b
  | Gt -> fun a b -> sext b < sext a
  | Ge -> fun a b -> sext b <= sext a
  | Ult -> fun a b -> a < b
  | Ule -> fun a b -> a <= b
  | Ugt -> fun a b -> b < a
  | Uge -> fun a b -> b <= a
  | Odd -> fun a b -> (a - b) land 1 = 1
  | Even -> fun a b -> (a - b) land 1 = 0

let intern_mnemonics code =
  let ids : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let rev_names = ref [] in
  let intern m =
    match Hashtbl.find_opt ids m with
    | Some id -> id
    | None ->
        let id = Hashtbl.length ids in
        Hashtbl.add ids m id;
        rev_names := m :: !rev_names;
        id
  in
  let mid = Array.map (fun i -> intern (Insn.mnemonic i)) code in
  (mid, Array.of_list (List.rev !rev_names))

let make (cpu : Cpu.t) : int -> Cpu.outcome =
  let code = cpu.code in
  let len = Array.length code in
  let mem = cpu.mem in
  let mlen = Array.length mem in
  let mid, names = intern_mnemonics code in
  let nmn = Array.length names in
  let mc = Array.make (max nmn 1) 0 in
  let st =
    { carry = false; v = false; nullify = false; exit_pc = 0;
      null_count = 0; taken = 0; block_cycles = 0; step_cycles = 0 }
  in
  (* r.(0) is the hardwired zero, r.(32) the write sink for r0 targets. *)
  let r = Array.make 33 0 in
  let ri rg = Reg.to_int rg in
  let wi rg = let i = Reg.to_int rg in if i = 0 then 32 else i in
  let iu (imm : int32) = Int32.to_int imm land u32 in
  (* A taken static branch: validity is known at translation time. The
     interpreter checks the target before recording the taken branch,
     so an out-of-range target traps without counting as taken. *)
  let branch pc target =
    if target >= 0 && target < len then
      fun () -> st.taken <- st.taken + 1; target
    else fun () -> raise (Trap_at (pc, Trap.Bad_pc target))
  in
  let compile pc (insn : int Insn.t) : compiled =
    let n = mid.(pc) in
    match insn with
    | Alu { op; a; b; t = d; trap_ov } -> (
        let ai = ri a and bi = ri b and d = wi d in
        match op with
        | Add ->
            if trap_ov then
              Body (fun () ->
                  mc.(n) <- mc.(n) + 1;
                  let av = r.(ai) and bv = r.(bi) in
                  let w = av + bv in
                  st.carry <- w > u32;
                  st.v <- false;
                  let s = w land u32 in
                  if (av lxor bv) land sign = 0 && (av lxor s) land sign <> 0
                  then raise (Trap_at (pc, Trap.Overflow));
                  r.(d) <- s)
            else
              Body (fun () ->
                  mc.(n) <- mc.(n) + 1;
                  let w = r.(ai) + r.(bi) in
                  st.carry <- w > u32;
                  st.v <- false;
                  r.(d) <- w land u32)
        | Addc ->
            if trap_ov then
              Body (fun () ->
                  mc.(n) <- mc.(n) + 1;
                  let av = r.(ai) and bv = r.(bi) in
                  let ci = if st.carry then 1 else 0 in
                  let w = av + bv + ci in
                  st.carry <- w > u32;
                  let wide = sext av + sext bv + ci in
                  if wide < -0x8000_0000 || wide > 0x7fff_ffff then
                    raise (Trap_at (pc, Trap.Overflow));
                  r.(d) <- w land u32)
            else
              Body (fun () ->
                  mc.(n) <- mc.(n) + 1;
                  let w = r.(ai) + r.(bi) + (if st.carry then 1 else 0) in
                  st.carry <- w > u32;
                  r.(d) <- w land u32)
        | Sub ->
            if trap_ov then
              Body (fun () ->
                  mc.(n) <- mc.(n) + 1;
                  let av = r.(ai) and bv = r.(bi) in
                  let w = av - bv in
                  st.carry <- w >= 0;
                  st.v <- false;
                  let dv = w land u32 in
                  if (av lxor bv) land sign <> 0 && (av lxor dv) land sign <> 0
                  then raise (Trap_at (pc, Trap.Overflow));
                  r.(d) <- dv)
            else
              Body (fun () ->
                  mc.(n) <- mc.(n) + 1;
                  let w = r.(ai) - r.(bi) in
                  st.carry <- w >= 0;
                  st.v <- false;
                  r.(d) <- w land u32)
        | Subb ->
            if trap_ov then
              Body (fun () ->
                  mc.(n) <- mc.(n) + 1;
                  let av = r.(ai) and bv = r.(bi) in
                  let bw = if st.carry then 0 else 1 in
                  let w = av - bv - bw in
                  st.carry <- w >= 0;
                  let wide = sext av - sext bv - bw in
                  if wide < -0x8000_0000 || wide > 0x7fff_ffff then
                    raise (Trap_at (pc, Trap.Overflow));
                  r.(d) <- w land u32)
            else
              Body (fun () ->
                  mc.(n) <- mc.(n) + 1;
                  let w = r.(ai) - r.(bi) - (if st.carry then 0 else 1) in
                  st.carry <- w >= 0;
                  r.(d) <- w land u32)
        | Shadd k ->
            if trap_ov then
              Body (fun () ->
                  mc.(n) <- mc.(n) + 1;
                  let av = r.(ai) and bv = r.(bi) in
                  let shifted = (av lsl k) land u32 in
                  let w = shifted + bv in
                  st.carry <- w > u32;
                  (* The hardware's cheap circuit (§4): the k+1 top bits
                     of [a] must be sign copies, plus the 32-bit add's own
                     signed overflow. *)
                  let top = sext av asr (31 - k) in
                  let shift_ok = top = 0 || top = -1 in
                  let s = w land u32 in
                  let add_ov =
                    (shifted lxor bv) land sign = 0
                    && (shifted lxor s) land sign <> 0
                  in
                  if (not shift_ok) || add_ov then
                    raise (Trap_at (pc, Trap.Overflow));
                  r.(d) <- s)
            else
              Body (fun () ->
                  mc.(n) <- mc.(n) + 1;
                  let w = ((r.(ai) lsl k) land u32) + r.(bi) in
                  st.carry <- w > u32;
                  r.(d) <- w land u32)
        | And ->
            Body (fun () ->
                mc.(n) <- mc.(n) + 1;
                r.(d) <- r.(ai) land r.(bi))
        | Or ->
            Body (fun () ->
                mc.(n) <- mc.(n) + 1;
                r.(d) <- r.(ai) lor r.(bi))
        | Xor ->
            Body (fun () ->
                mc.(n) <- mc.(n) + 1;
                r.(d) <- r.(ai) lxor r.(bi))
        | Andcm ->
            Body (fun () ->
                mc.(n) <- mc.(n) + 1;
                r.(d) <- r.(ai) land lnot r.(bi) land u32))
    | Ds { a; b; t = d } ->
        let ai = ri a and bi = ri b and d = wi d in
        Body (fun () ->
            mc.(n) <- mc.(n) + 1;
            (* One non-restoring divide step; the 33/34-bit partial
               remainder fits comfortably in the native int. *)
            let rr = r.(ai) - (if st.v then 0x1_0000_0000 else 0) in
            let r2 = (2 * rr) + (if st.carry then 1 else 0) in
            let r' = if st.v then r2 + r.(bi) else r2 - r.(bi) in
            st.v <- r' < 0;
            st.carry <- r' >= 0;
            r.(d) <- r' land u32)
    | Addi { imm; a; t = d; trap_ov } ->
        let ai = ri a and d = wi d and imm = iu imm in
        if trap_ov then
          Body (fun () ->
              mc.(n) <- mc.(n) + 1;
              let av = r.(ai) in
              let w = av + imm in
              st.carry <- w > u32;
              st.v <- false;
              let s = w land u32 in
              if (av lxor imm) land sign = 0 && (av lxor s) land sign <> 0
              then raise (Trap_at (pc, Trap.Overflow));
              r.(d) <- s)
        else
          Body (fun () ->
              mc.(n) <- mc.(n) + 1;
              let w = r.(ai) + imm in
              st.carry <- w > u32;
              st.v <- false;
              r.(d) <- w land u32)
    | Subi { imm; a; t = d; trap_ov } ->
        (* SUBI computes imm - a: the immediate is the left operand. *)
        let ai = ri a and d = wi d and imm = iu imm in
        if trap_ov then
          Body (fun () ->
              mc.(n) <- mc.(n) + 1;
              let av = r.(ai) in
              let w = imm - av in
              st.carry <- w >= 0;
              st.v <- false;
              let dv = w land u32 in
              if (imm lxor av) land sign <> 0 && (imm lxor dv) land sign <> 0
              then raise (Trap_at (pc, Trap.Overflow));
              r.(d) <- dv)
        else
          Body (fun () ->
              mc.(n) <- mc.(n) + 1;
              let w = imm - r.(ai) in
              st.carry <- w >= 0;
              st.v <- false;
              r.(d) <- w land u32)
    | Comclr { cond; a; b; t = d } ->
        let ai = ri a and bi = ri b and d = wi d in
        let f = cond_fn cond in
        Term (fun () ->
            mc.(n) <- mc.(n) + 1;
            if f r.(ai) r.(bi) then st.nullify <- true;
            r.(d) <- 0;
            pc + 1)
    | Comiclr { cond; imm; a; t = d } ->
        let ai = ri a and d = wi d and imm = iu imm in
        let f = cond_fn cond in
        Term (fun () ->
            mc.(n) <- mc.(n) + 1;
            if f imm r.(ai) then st.nullify <- true;
            r.(d) <- 0;
            pc + 1)
    | Extr { signed; r = src; pos; len = flen; t = d; cond } -> (
        let s = ri src and d = wi d in
        let sl = 32 - pos - flen and sr = 32 - flen in
        let mask = (1 lsl flen) - 1 in
        match cond with
        | Never ->
            if signed then
              Body (fun () ->
                  mc.(n) <- mc.(n) + 1;
                  r.(d) <- sext ((r.(s) lsl sl) land u32) asr sr land u32)
            else
              Body (fun () ->
                  mc.(n) <- mc.(n) + 1;
                  r.(d) <- (r.(s) lsr pos) land mask)
        | _ ->
            let f = cond_fn cond in
            if signed then
              Term (fun () ->
                  mc.(n) <- mc.(n) + 1;
                  let v = sext ((r.(s) lsl sl) land u32) asr sr land u32 in
                  if f v 0 then st.nullify <- true;
                  r.(d) <- v;
                  pc + 1)
            else
              Term (fun () ->
                  mc.(n) <- mc.(n) + 1;
                  let v = (r.(s) lsr pos) land mask in
                  if f v 0 then st.nullify <- true;
                  r.(d) <- v;
                  pc + 1))
    | Zdep { r = src; pos; len = flen; t = d } ->
        let s = ri src and d = wi d in
        let mask = (1 lsl flen) - 1 in
        Body (fun () ->
            mc.(n) <- mc.(n) + 1;
            r.(d) <- ((r.(s) land mask) lsl pos) land u32)
    | Shd { a; b; sa; t = d } ->
        let ai = ri a and bi = ri b and d = wi d in
        if sa = 0 then
          Body (fun () ->
              mc.(n) <- mc.(n) + 1;
              r.(d) <- r.(bi))
        else
          Body (fun () ->
              mc.(n) <- mc.(n) + 1;
              r.(d) <- ((r.(ai) lsl (32 - sa)) lor (r.(bi) lsr sa)) land u32)
    | Ldil { imm; t = d } ->
        let d = wi d and imm = iu imm in
        Body (fun () ->
            mc.(n) <- mc.(n) + 1;
            r.(d) <- imm)
    | Ldo { imm; base; t = d } ->
        let b = ri base and d = wi d and imm = iu imm in
        Body (fun () ->
            mc.(n) <- mc.(n) + 1;
            r.(d) <- (r.(b) + imm) land u32)
    | Ldw { disp; base; t = d } ->
        let b = ri base and d = wi d and disp = iu disp in
        Body (fun () ->
            mc.(n) <- mc.(n) + 1;
            let addr = (r.(b) + disp) land u32 in
            if addr land 3 <> 0 then
              raise (Trap_at (pc, Trap.Unaligned (Int32.of_int addr)));
            let i = addr lsr 2 in
            if i >= mlen then
              raise (Trap_at (pc, Trap.Bad_address (Int32.of_int addr)));
            r.(d) <- Int32.to_int mem.(i) land u32)
    | Stw { r = src; disp; base } ->
        let s = ri src and b = ri base and disp = iu disp in
        Body (fun () ->
            mc.(n) <- mc.(n) + 1;
            let addr = (r.(b) + disp) land u32 in
            if addr land 3 <> 0 then
              raise (Trap_at (pc, Trap.Unaligned (Int32.of_int addr)));
            let i = addr lsr 2 in
            if i >= mlen then
              raise (Trap_at (pc, Trap.Bad_address (Int32.of_int addr)));
            mem.(i) <- Int32.of_int r.(s))
    | Ldaddr { target; t = d } ->
        let d = wi d and v = target land u32 in
        Body (fun () ->
            mc.(n) <- mc.(n) + 1;
            r.(d) <- v)
    | Comb { cond; a; b; target; n = _ } ->
        let ai = ri a and bi = ri b in
        let f = cond_fn cond and take = branch pc target in
        Term (fun () ->
            mc.(n) <- mc.(n) + 1;
            if f r.(ai) r.(bi) then take () else pc + 1)
    | Comib { cond; imm; a; target; n = _ } ->
        let ai = ri a and imm = iu imm in
        let f = cond_fn cond and take = branch pc target in
        Term (fun () ->
            mc.(n) <- mc.(n) + 1;
            if f imm r.(ai) then take () else pc + 1)
    | Addib { cond; imm; a; target; n = _ } ->
        let ai = ri a and aw = wi a and imm = iu imm in
        let f = cond_fn cond and take = branch pc target in
        Term (fun () ->
            mc.(n) <- mc.(n) + 1;
            (* The counter is written before the condition (on the sum)
               decides — it persists even into a Bad_pc trap. *)
            let sum = (r.(ai) + imm) land u32 in
            r.(aw) <- sum;
            if f sum 0 then take () else pc + 1)
    | B { target; n = _ } ->
        let take = branch pc target in
        Term (fun () ->
            mc.(n) <- mc.(n) + 1;
            take ())
    | Bl { target; t = d; n = _ } ->
        let d = wi d in
        let take = branch pc target in
        Term (fun () ->
            mc.(n) <- mc.(n) + 1;
            r.(d) <- pc + 1;
            take ())
    | Blr { x; t = d; n = _ } ->
        let xi = ri x and d = wi d in
        Term (fun () ->
            mc.(n) <- mc.(n) + 1;
            (* Link before reading x, like the interpreter (t may be x). *)
            r.(d) <- pc + 1;
            let target = pc + 1 + (2 * r.(xi)) in
            if target < len then begin
              st.taken <- st.taken + 1;
              target
            end
            else raise (Trap_at (pc, Trap.Bad_pc target)))
    | Bv { x; base; n = _ } ->
        let xi = ri x and b = ri base in
        Term (fun () ->
            mc.(n) <- mc.(n) + 1;
            let tw = (r.(b) + ((2 * r.(xi)) land u32)) land u32 in
            if tw = u32 then begin
              (* Halt sentinel: stop with the PC past this instruction. *)
              st.taken <- st.taken + 1;
              st.exit_pc <- pc + 1;
              -1
            end
            else if tw < len then begin
              st.taken <- st.taken + 1;
              tw
            end
            else raise (Trap_at (pc, Trap.Bad_pc tw)))
    | Break { code } ->
        Term (fun () ->
            mc.(n) <- mc.(n) + 1;
            raise (Trap_at (pc, Trap.Break code)))
    | Nop -> Body (fun () -> mc.(n) <- mc.(n) + 1)
  in
  (* Thread the closures into superblocks, built backwards so each body
     tail-calls directly into its successor's chain. [ops] is the
     single-instruction step used when remaining fuel can't cover a
     whole block; [blen] is the block's instruction count from each
     entry point. *)
  let dummy () = 0 in
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
        ops.(pc) <- (fun () -> b (); pc + 1);
        if pc = len - 1 then begin
          blocks.(pc) <- ops.(pc);
          blen.(pc) <- 1
        end
        else begin
          let next = blocks.(pc + 1) in
          blocks.(pc) <- (fun () -> b (); next ());
          blen.(pc) <- blen.(pc + 1) + 1
        end
  done;
  let regs = cpu.regs in
  let stats = cpu.stats in
  fun fuel ->
    r.(0) <- 0;
    for i = 1 to 31 do
      r.(i) <- Int32.to_int regs.(i) land u32
    done;
    st.carry <- cpu.carry;
    st.v <- cpu.v;
    st.nullify <- cpu.nullify;
    st.null_count <- 0;
    st.taken <- 0;
    st.block_cycles <- 0;
    st.step_cycles <- 0;
    Array.fill mc 0 (Array.length mc) 0;
    (* The driver mirrors the interpreter's [run]/[step] ordering
       exactly: fuel before the bounds check, bounds before the nullify
       shadow. Negative fuel never reaches 0, i.e. runs forever, in both
       engines. *)
    let rec go pc fuel =
      if pc < 0 then (Cpu.Halted, st.exit_pc)
      else if fuel = 0 then (Cpu.Fuel_exhausted, pc)
      else if pc >= len then (Cpu.Trapped (Trap.Bad_pc pc), pc)
      else if st.nullify then begin
        st.nullify <- false;
        st.null_count <- st.null_count + 1;
        st.step_cycles <- st.step_cycles + 1;
        go (pc + 1) (fuel - 1)
      end
      else
        let bl = blen.(pc) in
        if fuel >= bl || fuel < 0 then begin
          st.block_cycles <- st.block_cycles + bl;
          go (blocks.(pc) ()) (fuel - bl)
        end
        else begin
          st.step_cycles <- st.step_cycles + 1;
          go (ops.(pc) ()) (fuel - 1)
        end
    in
    let outcome, end_pc =
      try go cpu.pc fuel
      with Trap_at (tpc, trap) -> (Cpu.Trapped trap, tpc)
    in
    for i = 1 to 31 do
      (* Skip untouched registers: the comparison is allocation-free,
         while [Int32.of_int] boxes — short runs are sync-dominated. *)
      if Int32.to_int regs.(i) land u32 <> r.(i) then
        regs.(i) <- Int32.of_int r.(i)
    done;
    cpu.carry <- st.carry;
    cpu.v <- st.v;
    cpu.nullify <- st.nullify;
    cpu.pc <- end_pc;
    (match outcome with Cpu.Halted -> cpu.halted <- true | _ -> ());
    for id = 0 to Array.length names - 1 do
      if mc.(id) > 0 then Stats.add_executed stats ~mnemonic:names.(id) mc.(id)
    done;
    Stats.add_nullified stats st.null_count;
    Stats.add_branches_taken stats st.taken;
    if st.block_cycles > 0 then
      Hppa_obs.Obs.Counter.add cpu.prof.block_cycles st.block_cycles;
    if st.step_cycles > 0 then
      Hppa_obs.Obs.Counter.add cpu.prof.step_cycles st.step_cycles;
    outcome
