(* Machine state and the reference interpreter.

   This module holds the concrete simulator state and the per-instruction
   interpreter that defines the architecture's semantics. It exists as a
   separate layer so that the threaded-code engine ({!Engine}) can be
   compiled against the same state record without a dependency cycle:

     Cpu (state + reference semantics) <- Engine (translate once) <- Machine

   Everything outside [lib/machine] goes through the {!Machine} facade;
   the record is exposed here only for the engine and the tests. *)

module Word = Hppa_word.Word
module Obs = Hppa_obs.Obs

(* An armed control transfer: in delay-slot mode branches arm one of
   these and it is applied after the following instruction (the slot)
   completes. *)
type control = Jump of int | Stop

type outcome = Halted | Trapped of Trap.t | Fuel_exhausted

(* Per-machine execution policy, fixed at creation. The mutable [trace]
   field below shadows its config value so [set_trace] keeps working. *)
type config = {
  engine : bool;
  fuel : int;
  trace : (int -> int Insn.t -> unit) option;
  obs : Obs.Registry.t option;
  obs_labels : (string * string) list;
}

let default_config =
  { engine = true; fuel = 1_000_000; trace = None; obs = None; obs_labels = [] }

(* Dispatch-level profiling: how runs were executed and how the engine's
   cycles split between fused superblocks and single-stepped tails.
   Always counted (a handful of atomic adds per [run]); published as
   [hppa_machine_*] metrics when a registry is attached. *)
type profile = {
  engine_runs : Obs.Counter.t;
  interp_runs : Obs.Counter.t;
  translations : Obs.Counter.t;
  translate_reuses : Obs.Counter.t;
  block_cycles : Obs.Counter.t;
  step_cycles : Obs.Counter.t;
}

type t = {
  prog : Program.resolved;
  code : int Insn.t array;
  regs : int32 array;
  mem : int32 array;
  delay : bool;
  mutable carry : bool;
  mutable v : bool;
  mutable nullify : bool;
  mutable pending : control option;
  mutable pc : int;
  mutable halted : bool;
  stats : Stats.t;
  mutable trace : (int -> int Insn.t -> unit) option;
  mutable icache : Icache.t option;
  mutable engine : (int -> outcome) option;
      (* the compiled threaded engine, built lazily on first eligible run *)
  mutable used_engine : bool;
      (* whether the last run/call went through the engine *)
  cfg : config;
  prof : profile;
}

let halt_sentinel = -1l
let arg_regs = [| Reg.arg0; Reg.arg1; Reg.arg2; Reg.arg3; Reg.ret0; Reg.ret1 |]

let create ?(mem_bytes = 65536) ?(delay_slots = false)
    ?(config = default_config) prog =
  let prof =
    {
      engine_runs = Obs.Counter.create ();
      interp_runs = Obs.Counter.create ();
      translations = Obs.Counter.create ();
      translate_reuses = Obs.Counter.create ();
      block_cycles = Obs.Counter.create ();
      step_cycles = Obs.Counter.create ();
    }
  in
  (match config.obs with
  | None -> ()
  | Some reg ->
      let labels = config.obs_labels in
      let reg_c ?help name extra c =
        Obs.Registry.register_counter reg ?help ~labels:(extra @ labels) name c
      in
      reg_c ~help:"Machine runs by dispatch path" "hppa_machine_runs_total"
        [ ("path", "engine") ] prof.engine_runs;
      reg_c ~help:"Machine runs by dispatch path" "hppa_machine_runs_total"
        [ ("path", "interpreter") ] prof.interp_runs;
      reg_c ~help:"Threaded-engine translations built"
        "hppa_machine_translations_total" [] prof.translations;
      reg_c ~help:"Engine runs that reused an existing translation"
        "hppa_machine_translate_reuses_total" [] prof.translate_reuses;
      reg_c ~help:"Engine cycles by dispatch granularity"
        "hppa_machine_cycles_total" [ ("dispatch", "superblock") ]
        prof.block_cycles;
      reg_c ~help:"Engine cycles by dispatch granularity"
        "hppa_machine_cycles_total" [ ("dispatch", "single_step") ]
        prof.step_cycles);
  {
    prog;
    code = Program.code prog;
    regs = Array.make 32 0l;
    mem = Array.make ((mem_bytes + 3) / 4) 0l;
    delay = delay_slots;
    carry = false;
    v = false;
    nullify = false;
    pending = None;
    pc = 0;
    halted = false;
    stats = Stats.create ?registry:config.obs ~labels:config.obs_labels ();
    trace = config.trace;
    icache = None;
    engine = None;
    used_engine = false;
    cfg = config;
    prof;
  }

let delay_slots t = t.delay

let program t = t.prog

let reset t =
  Array.fill t.regs 0 32 0l;
  t.carry <- false;
  t.v <- false;
  t.nullify <- false;
  t.pending <- None;
  t.pc <- 0;
  t.halted <- false;
  Stats.reset t.stats

let get t r = t.regs.(Reg.to_int r)

let set t r v =
  let i = Reg.to_int r in
  if i <> 0 then t.regs.(i) <- v

let carry t = t.carry
let v_bit t = t.v
let pc t = t.pc
let set_pc t pc = t.pc <- pc

let mem_index t (addr : int32) =
  if Int32.logand addr 3l <> 0l then Error (Trap.Unaligned addr)
  else
    let i = Word.to_int_u addr / 4 in
    if i >= Array.length t.mem then Error (Trap.Bad_address addr) else Ok i

let load_word t addr =
  Result.map (fun i -> t.mem.(i)) (mem_index t addr)

let store_word t addr v =
  Result.map (fun i -> t.mem.(i) <- v) (mem_index t addr)

let stats t = t.stats
let set_trace t hook = t.trace <- hook
let set_icache t c = t.icache <- c
let icache t = t.icache

let ( let* ) = Result.bind

(* --- Divide step: see the Machine interface comment and DESIGN.md. --- *)
let divide_step t a b =
  let r =
    Int64.sub (Word.to_int64_u a) (if t.v then 0x1_0000_0000L else 0L)
  in
  let r2 = Int64.add (Int64.mul 2L r) (if t.carry then 1L else 0L) in
  let r' =
    if t.v then Int64.add r2 (Word.to_int64_u b)
    else Int64.sub r2 (Word.to_int64_u b)
  in
  t.v <- r' < 0L;
  t.carry <- r' >= 0L;
  Int64.to_int32 r'

let alu_result t (op : Insn.alu) a b =
  match op with
  | Add ->
      let sum, carry_out = Word.add_carry a b ~carry_in:false in
      let ov = Word.add_overflows_s a b in
      t.carry <- carry_out;
      t.v <- false;
      (sum, ov)
  | Addc ->
      let carry_in = t.carry in
      let sum, carry_out = Word.add_carry a b ~carry_in in
      (* Signed overflow of a 3-input add, from the wide value. *)
      let wide =
        Int64.add
          (Int64.add (Word.to_int64_s a) (Word.to_int64_s b))
          (if carry_in then 1L else 0L)
      in
      let ov = wide < -0x8000_0000L || wide > 0x7fff_ffffL in
      t.carry <- carry_out;
      (sum, ov)
  | Sub ->
      let d, borrow = Word.sub_borrow a b ~borrow_in:false in
      let ov = Word.sub_overflows_s a b in
      (* PA-RISC convention: the PSW bit holds NOT-borrow after subtracts. *)
      t.carry <- not borrow;
      t.v <- false;
      (d, ov)
  | Subb ->
      let borrow_in = not t.carry in
      let d, borrow = Word.sub_borrow a b ~borrow_in in
      let wide =
        Int64.sub
          (Int64.sub (Word.to_int64_s a) (Word.to_int64_s b))
          (if borrow_in then 1L else 0L)
      in
      let ov = wide < -0x8000_0000L || wide > 0x7fff_ffffL in
      t.carry <- not borrow;
      (d, ov)
  | Shadd k ->
      (* The shift-and-adds are add-family instructions: they write the
         carry of the 32-bit addition (the double-word chain code depends
         on this, as did HP's). *)
      let shifted = Word.shl a k in
      let sum, carry_out = Word.add_carry shifted b ~carry_in:false in
      t.carry <- carry_out;
      (sum, Word.sh_add_overflows_hw k a b)
  | And -> (Word.logand a b, false)
  | Or -> (Word.logor a b, false)
  | Xor -> (Word.logxor a b, false)
  | Andcm -> (Word.logand a (Word.lognot b), false)

let check_pc t target =
  if target >= 0 && target < Array.length t.code then Ok target
  else Error (Trap.Bad_pc target)

let apply_control t = function
  | Jump target -> t.pc <- target
  | Stop -> t.halted <- true

(* Take a resolved transfer: immediately in the default model, or armed
   for after the delay slot (with the slot nullified under [,n]). *)
let take_branch t ~n ctrl =
  Stats.record_branch_taken t.stats;
  if t.delay then begin
    t.pending <- Some ctrl;
    if n then t.nullify <- true
  end
  else apply_control t ctrl;
  Ok ()

(* A register-computed branch target: the halt sentinel stops the machine,
   anything else must land inside the program image. *)
let dynamic_branch t ~n (target_word : int32) =
  if Word.equal target_word halt_sentinel then take_branch t ~n Stop
  else
    let target = Word.to_int_u target_word in
    let* target = check_pc t target in
    take_branch t ~n (Jump target)

let static_branch t ~n target =
  let* target = check_pc t target in
  take_branch t ~n (Jump target)

let exec t (i : int Insn.t) =
  let next = t.pc + 1 in
  t.pc <- next;
  match i with
  | Alu { op; a; b; t = dst; trap_ov } ->
      let v, ov = alu_result t op (get t a) (get t b) in
      if trap_ov && ov then Error Trap.Overflow
      else (
        set t dst v;
        Ok ())
  | Ds { a; b; t = dst } ->
      set t dst (divide_step t (get t a) (get t b));
      Ok ()
  | Addi { imm; a; t = dst; trap_ov } ->
      let v, ov = alu_result t Add (get t a) imm in
      if trap_ov && ov then Error Trap.Overflow
      else (
        set t dst v;
        Ok ())
  | Subi { imm; a; t = dst; trap_ov } ->
      let v, ov = alu_result t Sub imm (get t a) in
      if trap_ov && ov then Error Trap.Overflow
      else (
        set t dst v;
        Ok ())
  | Comclr { cond; a; b; t = dst } ->
      if Cond.eval cond (get t a) (get t b) then t.nullify <- true;
      set t dst 0l;
      Ok ()
  | Comiclr { cond; imm; a; t = dst } ->
      if Cond.eval cond imm (get t a) then t.nullify <- true;
      set t dst 0l;
      Ok ()
  | Extr { signed; r; pos; len; t = dst; cond } ->
      let f = if signed then Word.extract_s else Word.extract_u in
      let v = f (get t r) ~pos ~len in
      if Cond.eval cond v 0l then t.nullify <- true;
      set t dst v;
      Ok ()
  | Zdep { r; pos; len; t = dst } ->
      set t dst (Word.deposit (get t r) ~into:0l ~pos ~len);
      Ok ()
  | Shd { a; b; sa; t = dst } ->
      let wide =
        Int64.logor
          (Int64.shift_left (Word.to_int64_u (get t a)) 32)
          (Word.to_int64_u (get t b))
      in
      set t dst (Int64.to_int32 (Int64.shift_right_logical wide sa));
      Ok ()
  | Ldil { imm; t = dst } ->
      set t dst imm;
      Ok ()
  | Ldo { imm; base; t = dst } ->
      set t dst (Word.add (get t base) imm);
      Ok ()
  | Ldw { disp; base; t = dst } ->
      let* v = load_word t (Word.add (get t base) disp) in
      set t dst v;
      Ok ()
  | Stw { r; disp; base } -> store_word t (Word.add (get t base) disp) (get t r)
  | Ldaddr { target; t = dst } ->
      set t dst (Word.of_int target);
      Ok ()
  | Comb { cond; a; b; target; n } ->
      if Cond.eval cond (get t a) (get t b) then static_branch t ~n target
      else Ok ()
  | Comib { cond; imm; a; target; n } ->
      if Cond.eval cond imm (get t a) then static_branch t ~n target else Ok ()
  | Addib { cond; imm; a; target; n } ->
      (* Updates the counter without touching C or V (simplification noted
         in the interface). *)
      let sum = Word.add (get t a) imm in
      set t a sum;
      if Cond.eval cond sum 0l then static_branch t ~n target else Ok ()
  | B { target; n } -> static_branch t ~n target
  | Bl { target; t = dst; n } ->
      (* On a delay-slot pipeline the return point is past the slot. *)
      let link = if t.delay then next + 1 else next in
      set t dst (Word.of_int link);
      static_branch t ~n target
  | Blr { x; t = dst; n } ->
      (* Case tables start after the slot on a delay-slot pipeline; the
         scheduler materialises that slot (see Delay). *)
      let base = if t.delay then next + 1 else next in
      set t dst (Word.of_int base);
      let target = base + (2 * Word.to_int_u (get t x)) in
      static_branch t ~n target
  | Bv { x; base; n } ->
      let target =
        Word.add (get t base) (Word.of_int (2 * Word.to_int_u (get t x)))
      in
      dynamic_branch t ~n target
  | Break { code } -> Error (Trap.Break code)
  | Nop -> Ok ()

let step t =
  if t.halted then Ok ()
  else if t.pc < 0 || t.pc >= Array.length t.code then begin
    (* A pending transfer whose slot lies past the image end: charge the
       slot fetch as a nullified cycle and transfer (only reachable from a
       branch that is the image's last instruction). *)
    match t.pending with
    | Some ctrl ->
        t.pending <- None;
        t.nullify <- false;
        Stats.record t.stats ~nullified:true ~mnemonic:"nop";
        apply_control t ctrl;
        Ok ()
    | None -> Error (Trap.Bad_pc t.pc)
  end
  else begin
    let i = t.code.(t.pc) in
    (match t.icache with
    | Some c -> ignore (Icache.access c t.pc)
    | None -> ());
    (* If a transfer is armed, this instruction is its delay slot: the
       transfer applies once the slot completes — unless the slot arms a
       transfer of its own, which then wins (the scheduler never emits
       branches in slots; the semantics is defined for completeness). *)
    let pending_before = t.pending in
    t.pending <- None;
    let finish result =
      (match (result, pending_before) with
      | Ok (), Some ctrl when t.pending = None -> apply_control t ctrl
      | _, _ -> ());
      result
    in
    if t.nullify then (
      t.nullify <- false;
      Stats.record t.stats ~nullified:true ~mnemonic:(Insn.mnemonic i);
      t.pc <- t.pc + 1;
      finish (Ok ()))
    else (
      (match t.trace with Some hook -> hook t.pc i | None -> ());
      Stats.record t.stats ~nullified:false ~mnemonic:(Insn.mnemonic i);
      match exec t i with
      | Ok () -> finish (Ok ())
      | Error trap ->
          (* Leave the PC on the trapping instruction for diagnosis. *)
          t.pc <- t.pc - 1;
          Error trap)
  end

let run ?fuel t =
  let fuel = match fuel with Some f -> f | None -> t.cfg.fuel in
  let rec go fuel =
    if t.halted then Halted
    else if fuel = 0 then Fuel_exhausted
    else
      match step t with
      | Ok () -> go (fuel - 1)
      | Error trap ->
          Stats.record_trap t.stats (Trap.name trap);
          Trapped trap
  in
  go fuel
