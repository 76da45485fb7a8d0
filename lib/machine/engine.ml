(* Closure-threaded execution engine.

   Translate once, execute many: each resolved instruction is compiled
   into one specialized OCaml closure with register indices, immediates,
   condition evaluators and trap checks resolved at compile time, and
   straight-line runs of closures are chained into basic-block
   "superblocks" that execute with direct calls — no re-decode, no
   [Result] allocation, no per-instruction statistics hashing.

   Each closure is {!Sem}'s statement of its form, specialised to this
   engine's state: the register file [r] (unsigned words, slot 32 the r0
   sink) indexed by register number, and one PSW record. What stays
   here is how control leaves: a trap raises [Trap_at] and a terminator
   returns the next PC.

   Statistics parity: the reference interpreter records every
   instruction in a string-keyed histogram. The engine increments a
   per-mnemonic-id int counter inside each closure and settles the run
   once on exit through a {!Stats.tally}, which holds each mnemonic's
   histogram counter resolved on its first use in this translation. So
   cycles, the executed/nullified split, taken-branch counts and the
   histogram are bit-identical to the interpreter's, and a run pays no
   string hash. Settling with one string-keyed lookup per mnemonic used
   had cost a short call about 40% of its time: [mulI] took 564 ns per
   call that way and takes 328 ns now (release build, 2-vCPU Xeon).

   The engine implements only the default (no delay slot) branch model
   and supports neither trace hooks nor the icache model; {!Machine.run}
   falls back to the reference interpreter for those. *)

(* Raised by a compiled closure; the driver converts it to [Trapped],
   leaving the PC on the trapping instruction like the interpreter. *)
exception Trap_at of int * Trap.t

type st = {
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

let make (cpu : Cpu.t) : int -> Cpu.outcome =
  let code = cpu.code in
  let len = Array.length code in
  let mem = cpu.mem in
  let words = Array.length mem in
  let mid, names = Sem.intern_mnemonics code in
  let tally = Stats.tally cpu.stats names in
  let mc = Stats.counts tally in
  let st =
    { nullify = false; exit_pc = 0; null_count = 0; taken = 0;
      block_cycles = 0; step_cycles = 0 }
  in
  let r = Array.make (Sem.sink + 1) 0 in
  let p = { Sem.carry = false; v = false } in
  let trap pc tr = raise (Trap_at (pc, tr)) in
  (* A taken branch; out of the image it traps without counting. *)
  let[@inline] jump pc target =
    if Sem.in_image len target then begin
      st.taken <- st.taken + 1;
      target
    end
    else trap pc (Trap.Bad_pc target)
  in
  let load_const n t x =
    let d = Sem.dst t in
    Sem.Body (fun () ->
        mc.(n) <- mc.(n) + 1;
        r.(d) <- x)
  in
  let compile pc : (unit -> unit, unit -> int) Sem.compiled =
    let n = mid.(pc) in
    let open Sem in
    match code.(pc) with
    | Alu { op; a; b; t; trap_ov } -> (
        let a = src a and b = src b and d = dst t in
        match op with
        | Add when trap_ov ->
            Body (fun () ->
                mc.(n) <- mc.(n) + 1;
                if add ~trap:true r.(a) r.(b) r d p then trap pc Trap.Overflow)
        | Add ->
            Body (fun () ->
                mc.(n) <- mc.(n) + 1;
                ignore (add ~trap:false r.(a) r.(b) r d p))
        | Addc when trap_ov ->
            Body (fun () ->
                mc.(n) <- mc.(n) + 1;
                if addc ~trap:true r.(a) r.(b) r d p then trap pc Trap.Overflow)
        | Addc ->
            Body (fun () ->
                mc.(n) <- mc.(n) + 1;
                ignore (addc ~trap:false r.(a) r.(b) r d p))
        | Sub when trap_ov ->
            Body (fun () ->
                mc.(n) <- mc.(n) + 1;
                if sub ~trap:true r.(a) r.(b) r d p then trap pc Trap.Overflow)
        | Sub ->
            Body (fun () ->
                mc.(n) <- mc.(n) + 1;
                ignore (sub ~trap:false r.(a) r.(b) r d p))
        | Subb when trap_ov ->
            Body (fun () ->
                mc.(n) <- mc.(n) + 1;
                if subb ~trap:true r.(a) r.(b) r d p then trap pc Trap.Overflow)
        | Subb ->
            Body (fun () ->
                mc.(n) <- mc.(n) + 1;
                ignore (subb ~trap:false r.(a) r.(b) r d p))
        | Shadd k when trap_ov ->
            Body (fun () ->
                mc.(n) <- mc.(n) + 1;
                if shadd ~trap:true k r.(a) r.(b) r d p then
                  trap pc Trap.Overflow)
        | Shadd k ->
            Body (fun () ->
                mc.(n) <- mc.(n) + 1;
                ignore (shadd ~trap:false k r.(a) r.(b) r d p))
        | And ->
            Body (fun () ->
                mc.(n) <- mc.(n) + 1;
                r.(d) <- r.(a) land r.(b))
        | Or ->
            Body (fun () ->
                mc.(n) <- mc.(n) + 1;
                r.(d) <- r.(a) lor r.(b))
        | Xor ->
            Body (fun () ->
                mc.(n) <- mc.(n) + 1;
                r.(d) <- r.(a) lxor r.(b))
        | Andcm ->
            Body (fun () ->
                mc.(n) <- mc.(n) + 1;
                r.(d) <- andcm r.(a) r.(b)))
    | Ds { a; b; t } ->
        let a = src a and b = src b and d = dst t in
        Body (fun () ->
            mc.(n) <- mc.(n) + 1;
            ds r.(a) r.(b) r d p)
    | Addi { imm = i; a; t; trap_ov } ->
        let a = src a and d = dst t and i = imm i in
        if trap_ov then
          Body (fun () ->
              mc.(n) <- mc.(n) + 1;
              if add ~trap:true r.(a) i r d p then trap pc Trap.Overflow)
        else
          Body (fun () ->
              mc.(n) <- mc.(n) + 1;
              ignore (add ~trap:false r.(a) i r d p))
    | Subi { imm = i; a; t; trap_ov } ->
        let a = src a and d = dst t and i = imm i in
        if trap_ov then
          Body (fun () ->
              mc.(n) <- mc.(n) + 1;
              if sub ~trap:true i r.(a) r d p then trap pc Trap.Overflow)
        else
          Body (fun () ->
              mc.(n) <- mc.(n) + 1;
              ignore (sub ~trap:false i r.(a) r d p))
    | Comclr { cond; a; b; t } ->
        let a = src a and b = src b and d = dst t and f = cond_fn cond in
        Term (fun () ->
            mc.(n) <- mc.(n) + 1;
            if comclr f r.(a) r.(b) r d then st.nullify <- true;
            pc + 1)
    | Comiclr { cond; imm = i; a; t } ->
        let a = src a and d = dst t and i = imm i and f = cond_fn cond in
        Term (fun () ->
            mc.(n) <- mc.(n) + 1;
            if comclr f i r.(a) r d then st.nullify <- true;
            pc + 1)
    | Extr { signed; r = s; pos; len; t; cond } -> (
        let s = src s and d = dst t and f = cond_fn cond in
        match (cond, signed) with
        | Never, true ->
            Body (fun () ->
                mc.(n) <- mc.(n) + 1;
                r.(d) <- extrs ~pos ~len r.(s))
        | Never, false ->
            Body (fun () ->
                mc.(n) <- mc.(n) + 1;
                r.(d) <- extru ~pos ~len r.(s))
        | _, true ->
            Term (fun () ->
                mc.(n) <- mc.(n) + 1;
                let x = extrs ~pos ~len r.(s) in
                r.(d) <- x;
                if f x 0 then st.nullify <- true;
                pc + 1)
        | _, false ->
            Term (fun () ->
                mc.(n) <- mc.(n) + 1;
                let x = extru ~pos ~len r.(s) in
                r.(d) <- x;
                if f x 0 then st.nullify <- true;
                pc + 1))
    | Zdep { r = s; pos; len; t } ->
        let s = src s and d = dst t in
        Body (fun () ->
            mc.(n) <- mc.(n) + 1;
            r.(d) <- zdep ~pos ~len r.(s))
    | Shd { a; b; sa; t } ->
        let a = src a and b = src b and d = dst t in
        Body (fun () ->
            mc.(n) <- mc.(n) + 1;
            r.(d) <- shd ~sa r.(a) r.(b))
    | Ldil { imm = i; t } -> load_const n t (imm i)
    | Ldo { imm = i; base; t } ->
        let b = src base and d = dst t and i = imm i in
        Body (fun () ->
            mc.(n) <- mc.(n) + 1;
            r.(d) <- wrap (r.(b) + i))
    | Ldw { disp; base; t } ->
        let b = src base and d = dst t and disp = imm disp in
        Body (fun () ->
            mc.(n) <- mc.(n) + 1;
            let addr = wrap (r.(b) + disp) in
            if not (mem_ok ~words addr) then trap pc (mem_fault addr);
            r.(d) <- wrap (Int32.to_int mem.(addr lsr 2)))
    | Stw { r = s; disp; base } ->
        let s = src s and b = src base and disp = imm disp in
        Body (fun () ->
            mc.(n) <- mc.(n) + 1;
            let addr = wrap (r.(b) + disp) in
            if not (mem_ok ~words addr) then trap pc (mem_fault addr);
            mem.(addr lsr 2) <- Int32.of_int r.(s))
    | Ldaddr { target; t } -> load_const n t (wrap target)
    | Comb { cond; a; b; target; n = _ } ->
        let a = src a and b = src b and f = cond_fn cond in
        Term (fun () ->
            mc.(n) <- mc.(n) + 1;
            if f r.(a) r.(b) then jump pc target else pc + 1)
    | Comib { cond; imm = i; a; target; n = _ } ->
        let a = src a and i = imm i and f = cond_fn cond in
        Term (fun () ->
            mc.(n) <- mc.(n) + 1;
            if f i r.(a) then jump pc target else pc + 1)
    | Addib { cond; imm = i; a; target; n = _ } ->
        let x = src a and d = dst a and i = imm i and f = cond_fn cond in
        Term (fun () ->
            mc.(n) <- mc.(n) + 1;
            if addib f r.(x) i r d then jump pc target else pc + 1)
    | B { target; n = _ } ->
        Term (fun () ->
            mc.(n) <- mc.(n) + 1;
            jump pc target)
    | Bl { target; t; n = _ } ->
        let d = dst t in
        Term (fun () ->
            mc.(n) <- mc.(n) + 1;
            r.(d) <- pc + 1;
            jump pc target)
    | Blr { x; t; n = _ } ->
        let x = src x and d = dst t in
        Term (fun () ->
            mc.(n) <- mc.(n) + 1;
            jump pc (blr ~pc r x r d))
    | Bv { x; base; n = _ } ->
        let x = src x and b = src base in
        Term (fun () ->
            mc.(n) <- mc.(n) + 1;
            let target = bv r.(x) r.(b) in
            if target = halt then begin
              st.taken <- st.taken + 1;
              st.exit_pc <- pc + 1;
              -1
            end
            else jump pc target)
    | Break { code } ->
        Term (fun () ->
            mc.(n) <- mc.(n) + 1;
            trap pc (Trap.Break code))
    | Nop -> Body (fun () -> mc.(n) <- mc.(n) + 1)
  in
  (* [Sys.opaque_identity] keeps each wrapper a closure of its own: the
     compiler would otherwise merge it into a curried [fun pc b () -> ..],
     and every dispatch would go through a partial-application stub. *)
  let { Sem.ops; blocks; blen } =
    Sem.thread len compile
      ~dummy:(fun () -> 0)
      ~step:(fun pc b -> Sys.opaque_identity (fun () -> b (); pc + 1))
      ~chain:(fun b next -> Sys.opaque_identity (fun () -> b (); next ()))
  in
  let regs = cpu.regs in
  fun fuel ->
    r.(0) <- 0;
    for i = 1 to 31 do
      r.(i) <- Sem.wrap (Int32.to_int regs.(i))
    done;
    p.carry <- cpu.carry;
    p.v <- cpu.v;
    st.nullify <- cpu.nullify;
    st.null_count <- 0;
    st.taken <- 0;
    st.block_cycles <- 0;
    st.step_cycles <- 0;
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
      if Sem.wrap (Int32.to_int regs.(i)) <> r.(i) then
        regs.(i) <- Int32.of_int r.(i)
    done;
    cpu.carry <- p.carry;
    cpu.v <- p.v;
    cpu.nullify <- st.nullify;
    cpu.pc <- end_pc;
    (match outcome with Cpu.Halted -> cpu.halted <- true | _ -> ());
    Stats.settle tally ~nullified:st.null_count ~taken:st.taken;
    if st.block_cycles > 0 then
      Hppa_obs.Obs.Counter.add cpu.prof.block_cycles st.block_cycles;
    if st.step_cycles > 0 then
      Hppa_obs.Obs.Counter.add cpu.prof.step_cycles st.step_cycles;
    outcome
