module Word = Hppa_word.Word
module Plan = Hppa_plan.Strategy
module Selector = Hppa_plan.Selector

type t = {
  entry : string;
  params : string list;
  source : Program.source;
  millicode_calls : int;
  inline_multiplies : int;
}

let inline_mul_threshold = 6

exception Unsupported of string

(* Parameters live in r3..r6, expression temporaries in r7..r18; both
   ranges survive millicode calls (the library touches only r1, r19..r31
   and the argument/result registers). *)
let param_regs = [ 3; 4; 5; 6 ] |> List.map Reg.of_int
let temp_regs = List.init 12 (fun i -> Reg.of_int (7 + i))

(* Scratch registers handed to inline chains: the result temp first, then
   caller-saved scratch the chains may clobber freely. *)
let chain_scratch = [ Reg.t2; Reg.t3; Reg.t4; Reg.t5 ]

type state = {
  b : Builder.t;
  vars : (string * Reg.t) list;
  mutable free : Reg.t list;
  mutable millicode_calls : int;
  mutable inline_multiplies : int;
  mutable plans : (string * Program.source) list; (* per-constant routines *)
  pool_size : int;  (** temporaries available at state creation *)
  trap_overflow : bool;
  small_divisor_dispatch : bool;
  require_certified : bool;
}

(* Register exhaustion names the sub-expression being lowered and the
   pool that ran dry, so "expression needs too many registers" is
   actionable. *)
let out_of_registers ~what ~pool e =
  raise
    (Unsupported
       (Format.asprintf
          "out of registers lowering %a: all %d %s temporaries are live"
          Expr.pp e pool what))

let alloc st e =
  match st.free with
  | r :: rest ->
      st.free <- rest;
      r
  | [] -> out_of_registers ~what:"single-word" ~pool:st.pool_size e

(* Anything in the callee-saved range can serve as an expression
   temporary; variable registers are simply never released. *)
let callee_saved = List.init 16 (fun i -> Reg.of_int (3 + i))


let release st r =
  let is_var = List.exists (fun (_, r') -> Reg.equal r r') st.vars in
  let is_pool = List.exists (Reg.equal r) callee_saved in
  if is_pool && not is_var then st.free <- r :: st.free

(* The signed-divide routine for a constant: divisors 1..19 reuse the
   routines already resident in the millicode library (Div_small links
   them); anything else is generated into this unit once. *)
let divide_entry st c =
  if Word.lt_s 0l c && Word.to_int_s c < Div_small.threshold then
    Printf.sprintf "divi_c%ld" c
  else begin
    let plan = Div_const.plan_signed c in
    if not (List.mem_assoc plan.entry st.plans) then
      st.plans <- (plan.entry, plan.source) :: st.plans;
    plan.entry
  end

let call st target =
  st.millicode_calls <- st.millicode_calls + 1;
  Builder.insn st.b (Emit.bl target Reg.mrp)

(* Every non-trivial multiply/divide/remainder is arbitrated by the
   strategy selector (lib/plan) under the compiler's context; the chosen
   strategy is then mapped onto this module's emission idioms (inline
   chain, resident small-divisor routine, per-unit constant plan, or
   millicode call), so the selector decides and the generated code stays
   in the compiler's conventions. *)
let selector_ctx st =
  {
    (Plan.compiler ~small_divisor_dispatch:st.small_divisor_dispatch ()) with
    Plan.inline_mul_threshold;
  }

let choose st req =
  Selector.choose ~ctx:(selector_ctx st)
    ~require_certified:st.require_certified req

(* The call-through strategies carry their millicode entry in the
   emission detail; fall back to the historical target if selection ever
   fails (it cannot for well-formed requests). *)
let millicode_target choice ~default =
  match choice with
  | Ok c -> (
      match c.Selector.emission.Plan.detail with
      | Plan.Millicode m -> m
      | Plan.Mul_plan _ | Plan.Div_plan _ | Plan.Pair_chain _ -> default)
  | Error _ -> default

(* Inline a multiply-by-constant chain: product of [src] by the chain's
   target into a fresh temp. *)
let inline_chain st ~ctx ~negate chain src =
  st.inline_multiplies <- st.inline_multiplies + 1;
  let dst = alloc st ctx in
  let pool = Array.of_list (dst :: chain_scratch) in
  let _info =
    Chain_codegen.body_at ~overflow:st.trap_overflow ~negate ~src ~pool chain
      st.b
  in
  dst

let rec emit st (e : Expr.t) : Reg.t =
  let ov = st.trap_overflow in
  let binop f a b =
    let ra = emit st a in
    let rb = emit st b in
    release st ra;
    release st rb;
    let t = alloc st e in
    Builder.insn st.b (f ra rb t);
    t
  in
  match e with
  | Var v -> (
      match List.assoc_opt v st.vars with
      | Some r -> r
      | None -> raise (Unsupported ("unbound variable " ^ v)))
  | Const c ->
      let t = alloc st e in
      Builder.insns st.b (Emit.ldi c t);
      t
  | Const64 _ ->
      raise
        (Unsupported
           (Format.asprintf
              "64-bit constant %a in a 32-bit lowering (compile with \
               width W64)"
              Expr.pp e))
  | Add (a, b) -> binop (Emit.add ~ov) a b
  | Sub (a, b) -> binop (Emit.sub ~ov) a b
  | Neg a ->
      let ra = emit st a in
      release st ra;
      let t = alloc st e in
      Builder.insn st.b (Emit.sub ~ov Reg.r0 ra t);
      t
  | Mul (Const c, a) | Mul (a, Const c) -> emit_mul_const st e a c
  | Mul (a, b) ->
      let target =
        millicode_target
          (choose st (Plan.mul_var ~trap_overflow:ov ()))
          ~default:(if ov then Millicode.muloI else Millicode.mulI)
      in
      emit_call2 st e a b target
  | Div (a, Const c) when not (Word.equal c 0l) ->
      let target = emit_div_const_entry st c in
      let ra = emit st a in
      Builder.insn st.b (Emit.copy ra Reg.arg0);
      release st ra;
      call st target;
      let t = alloc st e in
      Builder.insn st.b (Emit.copy Reg.ret0 t);
      t
  | Div (a, b) ->
      let target =
        millicode_target
          (choose st (Plan.div_var Plan.Signed))
          ~default:(if st.small_divisor_dispatch then "divI_small" else "divI")
      in
      emit_call2 st e a b target
  | Rem (a, Const c) when not (Word.equal c 0l) -> emit_rem_const st e a c
  | Rem (a, b) ->
      let target =
        millicode_target
          (choose st (Plan.rem_var Plan.Signed))
          ~default:"remI"
      in
      emit_call2 st e a b target

and emit_call2 st e a b target =
  let ra = emit st a in
  let rb = emit st b in
  Builder.insns st.b [ Emit.copy ra Reg.arg0; Emit.copy rb Reg.arg1 ];
  release st ra;
  release st rb;
  call st target;
  let t = alloc st e in
  Builder.insn st.b (Emit.copy Reg.ret0 t);
  t

and emit_mul_const st e a c =
  if Word.equal c 0l then begin
    (* Still evaluate a for faithfulness to side-effect-free semantics,
       then discard. *)
    let ra = emit st a in
    release st ra;
    let t = alloc st e in
    Builder.insn st.b (Emit.copy Reg.r0 t);
    t
  end
  else
    (* The selector inlines exactly when the chain strategy wins under
       the compiler context (chain found and within the inline
       threshold); the chosen emission carries that chain. *)
    let inline_choice =
      match choose st (Plan.mul_const ~trap_overflow:st.trap_overflow c) with
      | Ok choice -> (
          match
            (choice.Selector.chosen.Plan.name,
             choice.Selector.emission.Plan.detail)
          with
          | "mul_const_chain", Plan.Mul_plan { Mul_const.chain = Some chain; _ }
            ->
              Some chain
          | _ -> None)
      | Error _ -> None
    in
    match inline_choice with
    | Some chain ->
        let ra = emit st a in
        let t = inline_chain st ~ctx:e ~negate:(Word.is_neg c) chain ra in
        release st ra;
        t
    | None ->
        (* Millicode multiply with an immediate operand. *)
        let ra = emit st a in
        Builder.insn st.b (Emit.copy ra Reg.arg0);
        release st ra;
        Builder.insns st.b (Emit.ldi c Reg.arg1);
        call st (if st.trap_overflow then Millicode.muloI else Millicode.mulI);
        let t = alloc st e in
        Builder.insn st.b (Emit.copy Reg.ret0 t);
        t

and emit_div_const_entry st c =
  (* The selector arbitrates constant plan vs. general millicode; in
     compiled code both map onto [divide_entry]'s conventions (a
     fallback constant plan is itself a [divU] tail call, so the two
     strategies coincide), and divisors below the small-divisor
     threshold reuse the routines resident in the linked library. *)
  match choose st (Plan.div_const Plan.Signed c) with
  | Ok choice
    when choice.Selector.chosen.Plan.name = "div_const"
         && not
              (Word.lt_s 0l c && Word.to_int_s c < Div_small.threshold) -> (
      match choice.Selector.emission.Plan.detail with
      | Plan.Div_plan plan ->
          if not (List.mem_assoc plan.Div_const.entry st.plans) then
            st.plans <-
              (plan.Div_const.entry, plan.Div_const.source) :: st.plans;
          plan.Div_const.entry
      | _ -> divide_entry st c)
  | Ok _ | Error _ -> divide_entry st c

and emit_rem_const st e a c =
  (* x mod c through the dedicated remainder routine (which itself
     composes x - (x/c)*c with an inline multiply-back chain). The
     selector's constant-divide emission is that very plan. *)
  let plan =
    match choose st (Plan.rem_const Plan.Signed c) with
    | Ok
        {
          Selector.chosen = { Plan.name = "div_const"; _ };
          emission = { Plan.detail = Plan.Div_plan plan; _ };
          _;
        } ->
        plan
    | Ok _ | Error _ -> Div_const.plan_rem_signed c
  in
  if not (List.mem_assoc plan.Div_const.entry st.plans) then
    st.plans <- (plan.Div_const.entry, plan.Div_const.source) :: st.plans;
  let ra = emit st a in
  Builder.insn st.b (Emit.copy ra Reg.arg0);
  release st ra;
  call st plan.Div_const.entry;
  let t = alloc st e in
  Builder.insn st.b (Emit.copy Reg.ret0 t);
  t

let make_state ?(require_certified = false) b ~vars ~temps ~trap_overflow
    ~small_divisor_dispatch =
  {
    b;
    vars;
    free = temps;
    millicode_calls = 0;
    inline_multiplies = 0;
    plans = [];
    pool_size = List.length temps;
    trap_overflow;
    small_divisor_dispatch;
    require_certified;
  }

(* ------------------------------------------------------------------ *)
(* W64: the same lowering over (hi:lo) register pairs.

   Double-word values halve the register file: parameters live in the
   pairs (r3:r4), (r5:r6) (so at most 2 parameters), expression
   temporaries in the six pairs over r7..r18. Arithmetic lowers to PSW
   carry chains (ADD/ADDC, SUB/SUBB); multiplies and divides arbitrate
   through the same strategy selector between inline pair chains
   (w64_mul_const_chain) and the double-word millicode family. *)

type pair = Reg.t * Reg.t

let param_pairs = [ (Reg.of_int 3, Reg.of_int 4); (Reg.of_int 5, Reg.of_int 6) ]

let temp_pairs =
  List.init 6 (fun i -> (Reg.of_int (7 + (2 * i)), Reg.of_int (8 + (2 * i))))

(* Scratch pairs for inline pair chains: the destination first, then
   caller-saved pairs the chain may clobber (the arg2 pair is free
   between calls — chains make none). *)
let chain_scratch64 = [ (Reg.t2, Reg.t3); (Reg.t4, Reg.t5) ]

type state64 = {
  b64 : Builder.t;
  vars64 : (string * pair) list;
  mutable free64 : pair list;
  mutable millicode_calls64 : int;
  mutable inline_multiplies64 : int;
  pool_pairs : int;
  small_divisor_dispatch64 : bool;
  require_certified64 : bool;
}

let alloc64 st e =
  match st.free64 with
  | p :: rest ->
      st.free64 <- rest;
      p
  | [] -> out_of_registers ~what:"register-pair" ~pool:st.pool_pairs e

let callee_saved_pairs =
  List.init 8 (fun i -> (Reg.of_int (3 + (2 * i)), Reg.of_int (4 + (2 * i))))

let release64 st p =
  let is_var = List.exists (fun (_, p') -> p' = p) st.vars64 in
  let is_pool = List.mem p callee_saved_pairs in
  if is_pool && not is_var then st.free64 <- p :: st.free64

let call64 st target =
  st.millicode_calls64 <- st.millicode_calls64 + 1;
  Builder.insn st.b64 (Emit.bl target Reg.mrp)

let selector_ctx64 st =
  {
    (Plan.compiler ~small_divisor_dispatch:st.small_divisor_dispatch64 ()) with
    Plan.inline_mul_threshold;
  }

let choose64 st req =
  Selector.choose ~ctx:(selector_ctx64 st)
    ~require_certified:st.require_certified64 req

(* Load a dword constant into a pair. *)
let load_const64 st (hi, lo) c =
  Builder.insns st.b64
    (Emit.ldi (Int64.to_int32 (Int64.shift_right_logical c 32)) hi);
  Builder.insns st.b64 (Emit.ldi (Int64.to_int32 c) lo)

(* Move a pair into a (distinct) register pair. *)
let move_pair b (sh, sl) (dh, dl) =
  if not (Reg.equal sh dh) then Builder.insn b (Emit.copy sh dh);
  if not (Reg.equal sl dl) then Builder.insn b (Emit.copy sl dl)

let inline_chain64 st ~ctx ~negate chain src =
  st.inline_multiplies64 <- st.inline_multiplies64 + 1;
  let dst = alloc64 st ctx in
  let pool = Array.of_list ((dst :: chain_scratch64) @ [ (Reg.arg2, Reg.arg3) ]) in
  let _info = Chain_codegen.body_at_pair ~negate ~src ~pool chain st.b64 in
  dst

(* The double-word millicode call-throughs. [`Ret] results read
   (ret0:ret1) — quotients and remainders; [`Arg] reads (arg0:arg1) —
   the 128-bit product's low dword, i.e. the wrap-around 64-bit
   product. *)
let read_result64 st e where =
  let th, tl = alloc64 st e in
  (match where with
  | `Ret ->
      Builder.insns st.b64 [ Emit.copy Reg.ret0 th; Emit.copy Reg.ret1 tl ]
  | `Arg ->
      Builder.insns st.b64 [ Emit.copy Reg.arg0 th; Emit.copy Reg.arg1 tl ]);
  (th, tl)

let rec emit64 st (e : Expr.t) : pair =
  let binop2 flow fhigh a b =
    let ra = emit64 st a in
    let rb = emit64 st b in
    release64 st ra;
    release64 st rb;
    let th, tl = alloc64 st e in
    (* The low half writes first and never feeds the high half's reads,
       so the destination pair may reuse an operand pair. *)
    Builder.insn st.b64 (flow (snd ra) (snd rb) tl);
    Builder.insn st.b64 (fhigh (fst ra) (fst rb) th);
    (th, tl)
  in
  match e with
  | Var v -> (
      match List.assoc_opt v st.vars64 with
      | Some p -> p
      | None -> raise (Unsupported ("unbound variable " ^ v)))
  | Const c ->
      let p = alloc64 st e in
      load_const64 st p (Int64.of_int32 c);
      p
  | Const64 c ->
      let p = alloc64 st e in
      load_const64 st p c;
      p
  | Add (a, b) -> binop2 (fun x y t -> Emit.add x y t) (fun x y t -> Emit.addc x y t) a b
  | Sub (a, b) -> binop2 (fun x y t -> Emit.sub x y t) (fun x y t -> Emit.subb x y t) a b
  | Neg a ->
      let rh, rl = emit64 st a in
      release64 st (rh, rl);
      let th, tl = alloc64 st e in
      Builder.insn st.b64 (Emit.sub Reg.r0 rl tl);
      Builder.insn st.b64 (Emit.subb Reg.r0 rh th);
      (th, tl)
  | Mul (Const c, a) | Mul (a, Const c) ->
      emit64_mul_const st e a (Int64.of_int32 c)
  | Mul (Const64 c, a) | Mul (a, Const64 c) -> emit64_mul_const st e a c
  | Mul (a, b) ->
      let target =
        millicode_target (choose64 st (Plan.w64_mul Plan.Signed))
          ~default:"mulI128"
      in
      emit64_call2 st e a b target `Arg
  | Div (a, Const c) when not (Word.equal c 0l) ->
      emit64_div_const st e a (Int64.of_int32 c) Plan.w64_div_const "divI64w"
  | Div (a, Const64 c) when not (Int64.equal c 0L) ->
      emit64_div_const st e a c Plan.w64_div_const "divI64w"
  | Div (a, b) ->
      let target =
        millicode_target (choose64 st (Plan.w64_div Plan.Signed))
          ~default:"divI64w"
      in
      emit64_call2 st e a b target `Ret
  | Rem (a, Const c) when not (Word.equal c 0l) ->
      emit64_div_const st e a (Int64.of_int32 c) Plan.w64_rem_const "remI64w"
  | Rem (a, Const64 c) when not (Int64.equal c 0L) ->
      emit64_div_const st e a c Plan.w64_rem_const "remI64w"
  | Rem (a, b) ->
      let target =
        millicode_target (choose64 st (Plan.w64_rem Plan.Signed))
          ~default:"remI64w"
      in
      emit64_call2 st e a b target `Ret

and emit64_call2 st e a b target where =
  let ra = emit64 st a in
  let rb = emit64 st b in
  move_pair st.b64 ra (Reg.arg0, Reg.arg1);
  move_pair st.b64 rb (Reg.arg2, Reg.arg3);
  release64 st ra;
  release64 st rb;
  call64 st target;
  read_result64 st e where

and emit64_mul_const st e a c =
  if Int64.equal c 0L then begin
    let ra = emit64 st a in
    release64 st ra;
    let th, tl = alloc64 st e in
    Builder.insn st.b64 (Emit.copy Reg.r0 th);
    Builder.insn st.b64 (Emit.copy Reg.r0 tl);
    (th, tl)
  end
  else
    (* The selector arbitrates pair chain vs. mulI128 call-through under
       the compiler context; the chosen emission carries the chain. *)
    let choice = choose64 st (Plan.w64_mul_const c) in
    let inline_chain_of =
      match choice with
      | Ok ch -> (
          match
            (ch.Selector.chosen.Plan.name, ch.Selector.emission.Plan.detail)
          with
          | "w64_mul_const_chain", Plan.Pair_chain chain -> Some chain
          | _ -> None)
      | Error _ -> None
    in
    match inline_chain_of with
    | Some chain ->
        let ra = emit64 st a in
        let t =
          inline_chain64 st ~ctx:e ~negate:(Int64.compare c 0L < 0) chain ra
        in
        release64 st ra;
        t
    | None ->
        let target = millicode_target choice ~default:"mulI128" in
        let ra = emit64 st a in
        move_pair st.b64 ra (Reg.arg0, Reg.arg1);
        release64 st ra;
        load_const64 st (Reg.arg2, Reg.arg3) c;
        call64 st target;
        read_result64 st e `Arg

and emit64_div_const st e a c req_of default =
  let target = millicode_target (choose64 st (req_of Plan.Signed c)) ~default in
  let ra = emit64 st a in
  move_pair st.b64 ra (Reg.arg0, Reg.arg1);
  release64 st ra;
  load_const64 st (Reg.arg2, Reg.arg3) c;
  call64 st target;
  read_result64 st e `Ret

let make_state64 ?(require_certified = false) b ~vars ~temps
    ~small_divisor_dispatch =
  {
    b64 = b;
    vars64 = vars;
    free64 = temps;
    millicode_calls64 = 0;
    inline_multiplies64 = 0;
    pool_pairs = List.length temps;
    small_divisor_dispatch64 = small_divisor_dispatch;
    require_certified64 = require_certified;
  }

let compile32 ?entry ~trap_overflow ~small_divisor_dispatch ?require_certified
    ~params expr =
  let entry = Option.value entry ~default:"proc" in
  if List.length params > List.length param_regs then
    raise
      (Unsupported
         (Printf.sprintf "%d parameters exceed the 4 argument registers"
            (List.length params)));
  let b = Builder.create ~prefix:entry () in
  Builder.label b entry;
  let vars = List.mapi (fun i v -> (v, List.nth param_regs i)) params in
  (* Move incoming arguments out of the way of millicode calls. *)
  List.iteri
    (fun i (_, r) ->
      Builder.insn b (Emit.copy (List.nth [ Reg.arg0; Reg.arg1; Reg.arg2; Reg.arg3 ] i) r))
    vars;
  let st =
    make_state ?require_certified b ~vars ~temps:temp_regs ~trap_overflow
      ~small_divisor_dispatch
  in
  let result = emit st expr in
  Builder.insn b (Emit.copy result Reg.ret0);
  Builder.insn b Emit.ret;
  let source =
    Program.concat (Builder.to_source b :: List.map snd st.plans)
  in
  {
    entry;
    params;
    source;
    millicode_calls = st.millicode_calls;
    inline_multiplies = st.inline_multiplies;
  }

let compile64 ?entry ~trap_overflow ~small_divisor_dispatch ?require_certified
    ~params expr =
  let entry = Option.value entry ~default:"proc" in
  if trap_overflow then
    raise
      (Unsupported
         "trap_overflow is a single-word discipline (the ,o completer traps \
          on 32-bit overflow); it has no W64 lowering");
  if List.length params > List.length param_pairs then
    raise
      (Unsupported
         (Printf.sprintf
            "%d parameters exceed the 2 double-word argument pairs"
            (List.length params)));
  let b = Builder.create ~prefix:entry () in
  Builder.label b entry;
  let vars = List.mapi (fun i v -> (v, List.nth param_pairs i)) params in
  (* Incoming dwords arrive in the arg pairs; move them into preserved
     pairs before any millicode call clobbers them. *)
  List.iteri
    (fun i (_, p) ->
      move_pair b
        (List.nth [ (Reg.arg0, Reg.arg1); (Reg.arg2, Reg.arg3) ] i)
        p)
    vars;
  let st =
    make_state64 ?require_certified b ~vars ~temps:temp_pairs
      ~small_divisor_dispatch
  in
  let rh, rl = emit64 st expr in
  Builder.insns b [ Emit.copy rh Reg.ret0; Emit.copy rl Reg.ret1 ];
  Builder.insn b Emit.ret;
  {
    entry;
    params;
    source = Builder.to_source b;
    millicode_calls = st.millicode_calls64;
    inline_multiplies = st.inline_multiplies64;
  }

let compile ?entry ?(trap_overflow = false) ?(small_divisor_dispatch = false)
    ?require_certified ?(width = Expr.W32) ~params expr =
  match width with
  | Expr.W32 ->
      compile32 ?entry ~trap_overflow ~small_divisor_dispatch
        ?require_certified ~params expr
  | Expr.W64 ->
      compile64 ?entry ~trap_overflow ~small_divisor_dispatch
        ?require_certified ~params expr

let compile_and_link ?entry ?trap_overflow ?small_divisor_dispatch
    ?require_certified ?width ~params expr =
  let unit_ =
    compile ?entry ?trap_overflow ?small_divisor_dispatch ?require_certified
      ?width ~params expr
  in
  Millicode.link unit_.source

module Internal = struct
  type nonrec state = state
  type nonrec state64 = state64

  let make_state = make_state
  let emit_expr = emit
  let release = release
  let plans st = List.map snd st.plans
  let millicode_calls st = st.millicode_calls
  let inline_multiplies st = st.inline_multiplies
  let callee_saved = callee_saved
  let make_state64 = make_state64
  let emit_expr64 = emit64
  let release64 = release64
  let millicode_calls64 st = st.millicode_calls64
  let inline_multiplies64 st = st.inline_multiplies64
  let callee_saved_pairs = callee_saved_pairs
end
