module Word = Hppa_word.Word
module Cfg = Hppa_verify.Cfg
open Hppa

type op = Mul | Div | Rem | Divl
type operand = Constant of int32 | Constant64 of int64 | Variable
type signedness = Unsigned | Signed
type width = W32 | W64

type request = {
  op : op;
  operand : operand;
  signedness : signedness;
  trap_overflow : bool;
  width : width;
}

let mul_const ?(trap_overflow = false) c =
  {
    op = Mul;
    operand = Constant c;
    signedness = Signed;
    trap_overflow;
    width = W32;
  }

let mul_var ?(trap_overflow = false) () =
  {
    op = Mul;
    operand = Variable;
    signedness = Signed;
    trap_overflow;
    width = W32;
  }

let div_const signedness c =
  { op = Div; operand = Constant c; signedness; trap_overflow = false; width = W32 }

let div_var signedness =
  { op = Div; operand = Variable; signedness; trap_overflow = false; width = W32 }

let rem_const signedness c =
  { op = Rem; operand = Constant c; signedness; trap_overflow = false; width = W32 }

let rem_var signedness =
  { op = Rem; operand = Variable; signedness; trap_overflow = false; width = W32 }

(* The W64 family: double-word operands always arrive in register pairs
   at run time, so the operand is necessarily [Variable]. *)
let w64 op signedness =
  { op; operand = Variable; signedness; trap_overflow = false; width = W64 }

let w64_mul signedness = w64 Mul signedness
let w64_div signedness = w64 Div signedness
let w64_rem signedness = w64 Rem signedness

(* The 128/64 divide: three run-time operand dwords (dividend high, low,
   divisor), unsigned only. *)
let w64_divl = w64 Divl Unsigned

(* Double-word constant forms: the run-time operand pair arrives in
   (arg0:arg1), the 64-bit constant is materialized by the emission. *)
let w64_mul_const ?(trap_overflow = false) c =
  {
    op = Mul;
    operand = Constant64 c;
    signedness = Signed;
    trap_overflow;
    width = W64;
  }

let w64_div_const signedness c =
  {
    op = Div;
    operand = Constant64 c;
    signedness;
    trap_overflow = false;
    width = W64;
  }

let w64_rem_const signedness c =
  {
    op = Rem;
    operand = Constant64 c;
    signedness;
    trap_overflow = false;
    width = W64;
  }

let op_name = function
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | Divl -> "divl"

let pp_request ppf r =
  Format.fprintf ppf "%s%s %s (%s%s)"
    (match r.width with W32 -> "" | W64 -> "64-bit ")
    (match r.op with
    | Mul -> "multiply"
    | Div -> "divide"
    | Rem -> "remainder"
    | Divl -> "128/64 divide")
    (match r.operand with
    | Constant c -> Printf.sprintf "by constant %ld" c
    | Constant64 c -> Printf.sprintf "by constant %Ld" c
    | Variable -> "by a run-time operand")
    (match r.signedness with Signed -> "signed" | Unsigned -> "unsigned")
    (if r.trap_overflow then ", trapping overflow" else "")

let request_id r =
  Printf.sprintf "%s.%s.%s%s%s" (op_name r.op)
    (match r.operand with
    | Constant c -> Printf.sprintf "c%ld" c
    | Constant64 c -> Printf.sprintf "c%Ld" c
    | Variable -> "var")
    (match r.signedness with Signed -> "s" | Unsigned -> "u")
    (if r.trap_overflow then ".trap" else "")
    (match r.width with W32 -> "" | W64 -> ".w64")

let request_of_string s =
  let parts =
    String.split_on_char ' ' (String.trim s)
    |> List.filter (fun p -> p <> "")
  in
  match parts with
  | [ op; operand ] -> (
      let is_var =
        match String.lowercase_ascii operand with
        | "x" | "var" | "_" -> true
        | _ -> false
      in
      let w32 op signedness trap_overflow =
        if is_var then
          Ok { op; operand = Variable; signedness; trap_overflow; width = W32 }
        else
          match Int32.of_string_opt operand with
          | Some c ->
              Ok
                { op; operand = Constant c; signedness; trap_overflow; width = W32 }
          | None ->
              Error
                (Printf.sprintf
                   "bad operand %S (expected a 32-bit constant or \"x\")"
                   operand)
      in
      (* The two-operand w64 forms accept a run-time operand or a full
         64-bit constant; the three-operand divl necessarily takes its
         operands at run time. *)
      let wide op signedness =
        if is_var then Ok (w64 op signedness)
        else
          match Int64.of_string_opt operand with
          | Some c ->
              Ok
                {
                  op;
                  operand = Constant64 c;
                  signedness;
                  trap_overflow = false;
                  width = W64;
                }
          | None ->
              Error
                (Printf.sprintf
                   "bad operand %S (expected a 64-bit constant or \"x\")"
                   operand)
      in
      match String.lowercase_ascii op with
      | "mul" -> w32 Mul Signed false
      | "mulo" -> w32 Mul Signed true
      | "divu" -> w32 Div Unsigned false
      | "divi" -> w32 Div Signed false
      | "remu" -> w32 Rem Unsigned false
      | "remi" -> w32 Rem Signed false
      | "w64mulu" -> wide Mul Unsigned
      | "w64muli" -> wide Mul Signed
      | "w64divu" -> wide Div Unsigned
      | "w64divi" -> wide Div Signed
      | "w64remu" -> wide Rem Unsigned
      | "w64remi" -> wide Rem Signed
      | "w64divl" ->
          if is_var then Ok w64_divl
          else Error "w64divl takes run-time operands only (use \"x\")"
      | tok ->
          Error
            (Printf.sprintf
               "bad operation %S (expected mul, mulo, divu, divi, remu, remi \
                or a w64 form: w64mulu, w64muli, w64divu, w64divi, w64remu, \
                w64remi, w64divl)"
               tok))
  | _ -> Error "expected \"<op> <operand>\", e.g. \"mul 625\" or \"divu x\""

(* ------------------------------------------------------------------ *)
(* Contexts                                                            *)

type purpose = Standalone | Inline_expansion

type context = {
  purpose : purpose;
  inline_mul_threshold : int;
  small_divisor_dispatch : bool;
  millicode_mul_cycles : int;
  millicode_div_cycles : int;
}

(* The modelled averages are the paper's: the final multiply comes in
   "generally under 20" cycles over the Figure 5 mix, the general divide
   "about 80". *)
let standalone =
  {
    purpose = Standalone;
    inline_mul_threshold = max_int;
    small_divisor_dispatch = false;
    millicode_mul_cycles = 20;
    millicode_div_cycles = 80;
  }

let compiler ?(small_divisor_dispatch = false) () =
  {
    standalone with
    purpose = Inline_expansion;
    inline_mul_threshold = 6;
    small_divisor_dispatch;
  }

(* ------------------------------------------------------------------ *)
(* Emissions                                                           *)

type detail =
  | Mul_plan of Mul_const.plan
  | Div_plan of Div_const.plan
  | Millicode of string
  | Pair_chain of Chain.t

type emission = {
  entry : string;
  source : Program.source;
  spec : Cfg.spec;
  deps : Program.source list;
  callee_specs : Cfg.spec list;
  static_instructions : int;
  detail : detail;
}

(* Each dependency is recorded as a library (resolved once per process),
   so a link resolves the emission's own code and splices the last
   dependency's image after it. *)
let link em =
  List.iter (fun src -> ignore (Program.library src)) em.deps;
  Program.resolve (Program.concat (em.source :: em.deps))

let verify em =
  match link em with
  | Error e -> Error e
  | Ok prog -> (
      let options =
        { Cfg.mode = Cfg.Simple; blr_slots = Div_small.threshold }
      in
      let specs = em.spec :: em.callee_specs in
      match
        Hppa_verify.Driver.check ~options ~specs ~entries:[ em.entry ] prog
      with
      | [] -> Ok ()
      | findings ->
          Error
            (Format.asprintf "@[<v>%a@]" Hppa_verify.Findings.pp_list findings))

let encoded em =
  Result.bind (link em) (fun prog ->
      Encode.round_trip (Program.length prog) (Program.insn prog))

let digest em =
  let ( let* ) = Result.bind in
  let* units =
    List.fold_right
      (fun src rest ->
        let* lib = Program.library src in
        let* w = Program.library_words lib in
        let* rest = rest in
        Ok ((lib, w) :: rest))
      em.deps (Ok [])
  in
  let* code = Program.resolve_before em.source (List.map fst units) in
  let* words = Encode.round_trip (Array.length code) (Array.get code) in
  Ok
    (Digest.to_hex
       (Digest.string
          (String.concat "" (Encode.le_bytes words :: List.map snd units))))

(* ------------------------------------------------------------------ *)
(* Strategies                                                          *)

type kind = Emits | Modelled
type cost = { score : int; note : string }

type t = {
  name : string;
  description : string;
  kind : kind;
  applies : request -> bool;
  cost : context -> request -> (cost, string) result;
  emit : request -> (emission, string) result;
  model : (request -> Word.t -> Word.t -> int option) option;
}

let constant_of req =
  match req.operand with
  | Constant c -> Some c
  | Constant64 _ | Variable -> None

let constant64_of req =
  match req.operand with
  | Constant64 c -> Some c
  | Constant _ | Variable -> None

let guard f = try f () with exn -> Error (Printexc.to_string exn)

let routine_spec ?(results = [ Reg.ret0 ]) req entry =
  {
    Cfg.name = entry;
    args =
      (match (req.width, req.operand) with
      | W64, Variable when req.op = Divl ->
          (* three operand dwords: dividend in both arg pairs, divisor
             in (ret0:ret1) *)
          [ Reg.arg0; Reg.arg1; Reg.arg2; Reg.arg3; Reg.ret0; Reg.ret1 ]
      | W64, Variable -> [ Reg.arg0; Reg.arg1; Reg.arg2; Reg.arg3 ]
      | W64, (Constant _ | Constant64 _) ->
          (* the run-time pair; the constant pair is materialized *)
          [ Reg.arg0; Reg.arg1 ]
      | W32, (Constant _ | Constant64 _) -> [ Reg.arg0 ]
      | W32, Variable -> [ Reg.arg0; Reg.arg1 ]);
    results;
    clobbers = Cfg.scratch;
  }

let millicode_spec name =
  List.find (fun (s : Cfg.spec) -> s.Cfg.name = name) Millicode.conventions

(* -- multiply by a constant: §5 addition chains ---------------------- *)

let w32_only r = r.width = W32

let mul_const_chain =
  let applies r = w32_only r && r.op = Mul && constant_of r <> None in
  let cost ctx r =
    match constant_of r with
    | None -> Error "not a constant multiply"
    | Some c -> (
        match ctx.purpose with
        | Standalone ->
            guard (fun () ->
                Ok
                  {
                    score = Mul_const.cost ~overflow:r.trap_overflow c;
                    note = "static instructions";
                  })
        | Inline_expansion ->
            if Word.equal c 0l then Error "multiply by zero folds away"
            else if Word.equal c Int32.min_int then
              Error "no inline chain for min_int"
            else
              let mode =
                if r.trap_overflow then Chain_rules.Monotonic
                else Chain_rules.Fast
              in
              (match Chain_rules.find ~mode (Int32.to_int (Word.abs c)) with
              | None -> Error "no chain within the rule program's bounds"
              | Some chain ->
                  let len = Chain.length chain in
                  if len > ctx.inline_mul_threshold then
                    Error
                      (Printf.sprintf
                         "chain length %d exceeds inline threshold %d" len
                         ctx.inline_mul_threshold)
                  else Ok { score = len; note = "inline chain steps" }))
  in
  let emit r =
    match constant_of r with
    | None -> Error "not a constant multiply"
    | Some c ->
        guard (fun () ->
            let plan = Mul_const.plan ~overflow:r.trap_overflow c in
            Ok
              {
                entry = plan.Mul_const.entry;
                source = plan.Mul_const.source;
                spec = routine_spec r plan.Mul_const.entry;
                deps = [];
                callee_specs = [];
                static_instructions = plan.Mul_const.static_instructions;
                detail = Mul_plan plan;
              })
  in
  {
    name = "mul_const_chain";
    description = "shift-and-add chain for a compile-time multiplier (section 5)";
    kind = Emits;
    applies;
    cost;
    emit;
    model = None;
  }

(* -- millicode call-through wrappers --------------------------------- *)

let constant_label c =
  (* Int64 so min_int renders as a valid label ("cm2147483648"). *)
  if c >= 0l then Printf.sprintf "c%ld" c
  else Printf.sprintf "cm%Ld" (Int64.neg (Int64.of_int32 c))

let constant_label64 c =
  (* %Lu so Int64.min_int (its own negation) renders unsigned. *)
  if c >= 0L then Printf.sprintf "c%Ld" c
  else Printf.sprintf "cm%Lu" (Int64.neg c)

let dword_hi c = Int64.to_int32 (Int64.shift_right_logical c 32)
let dword_lo c = Int64.to_int32 c

let wrapper ~target req =
  let entry =
    match req.operand with
    | Variable -> "via_" ^ target
    | Constant c -> Printf.sprintf "via_%s_%s" target (constant_label c)
    | Constant64 c -> Printf.sprintf "via_%s_%s" target (constant_label64 c)
  in
  let b = Builder.create ~prefix:entry () in
  Builder.label b entry;
  (match req.operand with
  | Constant c -> Builder.insns b (Emit.ldi c Reg.arg1)
  | Constant64 c ->
      (* the W64 second operand pair: (arg2:arg3) = (hi:lo) *)
      Builder.insns b (Emit.ldi (dword_hi c) Reg.arg2);
      Builder.insns b (Emit.ldi (dword_lo c) Reg.arg3)
  | Variable -> ());
  Builder.insn b (Emit.b target);
  let target_spec = millicode_spec target in
  {
    entry;
    source = Builder.to_source b;
    spec = routine_spec ~results:target_spec.Cfg.results req entry;
    deps = [ Millicode.source ];
    callee_specs = Millicode.conventions;
    static_instructions = Builder.length b;
    detail = Millicode target;
  }

let mul_millicode =
  let target r = if r.trap_overflow then Millicode.muloI else Millicode.mulI in
  {
    name = "mul_millicode";
    description =
      "branch to the production variable multiply (mulI, the section 6 final \
       algorithm; muloI when trapping)";
    kind = Emits;
    applies = (fun r -> w32_only r && r.op = Mul);
    cost =
      (fun ctx _ ->
        Ok
          {
            score = ctx.millicode_mul_cycles;
            note = "modelled average cycles (mulI)";
          });
    emit = (fun r -> guard (fun () -> Ok (wrapper ~target:(target r) r)));
    model = None;
  }

let ladder ~name ~score ~note ~description =
  {
    name;
    description;
    kind = Emits;
    applies =
      (fun r ->
        w32_only r && r.op = Mul && r.operand = Variable
        && not r.trap_overflow);
    cost = (fun _ _ -> Ok { score; note });
    emit = (fun r -> guard (fun () -> Ok (wrapper ~target:name r)));
    model = None;
  }

let mul_naive =
  ladder ~name:"mul_naive" ~score:167
    ~note:"modelled cycles (figure 2, data-independent)"
    ~description:"the naive one-bit-per-iteration multiply (figure 2)"

let mul_nibble =
  ladder ~name:"mul_nibble" ~score:55
    ~note:"modelled average cycles (figure 3, log-uniform operands)"
    ~description:"four multiplier bits per iteration (figure 3)"

let mul_switch =
  ladder ~name:"mul_switch" ~score:45
    ~note:"modelled average cycles (figure 4)"
    ~description:"the 16-way case-table multiply (figure 4)"

let baseline_booth =
  {
    name = "baseline_booth";
    description =
      "the rejected Multiply Step hardware (radix-4 Booth; model only)";
    kind = Modelled;
    applies =
      (fun r ->
        w32_only r && r.op = Mul && r.operand = Variable
        && not r.trap_overflow);
    cost =
      (fun _ _ ->
        Ok
          {
            score = Hppa_baselines.Booth.cycles ();
            note = "modelled multiply-step machine (16 steps + setup)";
          });
    emit = (fun _ -> Error "modelled baseline only: no Precision code");
    model = Some (fun _ _ _ -> Some (Hppa_baselines.Booth.cycles ()));
  }

(* -- division -------------------------------------------------------- *)

let div_gen_specs =
  List.filter
    (fun (s : Cfg.spec) ->
      List.mem s.Cfg.name [ "divU"; "divI"; "remU"; "remI" ])
    Millicode.conventions

(* The last constant divide each domain planned: a request's [cost],
   its [emit] and a reply rendered from a millicode winner all ask for
   the same plan, which is made once. *)
let last_div_plan = Domain.DLS.new_key (fun () -> None)

let div_const_plan r c =
  let key = (r.op, r.signedness, c) in
  match Domain.DLS.get last_div_plan with
  | Some (k, plan) when k = key -> plan
  | Some _ | None ->
      let plan =
        match (r.op, r.signedness) with
        | Div, Unsigned -> Div_const.plan_unsigned c
        | Div, Signed -> Div_const.plan_signed c
        | Rem, Unsigned -> Div_const.plan_rem_unsigned c
        | Rem, Signed -> Div_const.plan_rem_signed c
        | (Mul | Divl), _ -> invalid_arg "div_const_plan: not a divide"
      in
      Domain.DLS.set last_div_plan (Some (key, plan));
      plan

let div_const_strategy =
  let applies r =
    w32_only r
    && (r.op = Div || r.op = Rem)
    && (match constant_of r with
       | None -> false
       | Some c -> (
           match r.signedness with
           | Signed -> not (Word.equal c 0l)
           | Unsigned -> Word.lt_s 0l c))
  in
  let cost ctx r =
    match constant_of r with
    | None -> Error "not a constant divide"
    | Some c ->
        guard (fun () ->
            let plan = div_const_plan r c in
            if Div_const.needs_millicode plan then
              Ok
                {
                  score =
                    ctx.millicode_div_cycles
                    + plan.Div_const.static_instructions;
                  note = "tail-calls the general divide (the paper's y = 11 caveat)";
                }
            else
              Ok
                {
                  score = plan.Div_const.static_instructions;
                  note = "static instructions";
                })
  in
  let emit r =
    match constant_of r with
    | None -> Error "not a constant divide"
    | Some c ->
        guard (fun () ->
            let plan = div_const_plan r c in
            Ok
              {
                entry = plan.Div_const.entry;
                source = plan.Div_const.source;
                spec = routine_spec r plan.Div_const.entry;
                deps =
                  (if Div_const.needs_millicode plan then [ Div_gen.source ]
                   else []);
                callee_specs =
                  (if Div_const.needs_millicode plan then div_gen_specs
                   else []);
                static_instructions = plan.Div_const.static_instructions;
                detail = Div_plan plan;
              })
  in
  {
    name = "div_const";
    description =
      "reciprocal / power-of-two / even-split code for a compile-time \
       divisor (section 7)";
    kind = Emits;
    applies;
    cost;
    emit;
    model = None;
  }

let div_small_dispatch =
  let target r =
    match r.signedness with Unsigned -> "divU_small" | Signed -> "divI_small"
  in
  {
    name = "div_small";
    description =
      "vectored dispatch to constant-divisor routines for run-time divisors \
       below twenty (section 7, Performance)";
    kind = Emits;
    applies = (fun r -> w32_only r && r.op = Div && r.operand = Variable);
    cost =
      (fun ctx _ ->
        if ctx.small_divisor_dispatch then
          Ok
            {
              score = 23;
              note =
                "modelled average under a small-divisor operand model \
                 (paper: 10 to 36 cycles)";
            }
        else
          Ok
            {
              score = ctx.millicode_div_cycles + 3;
              note =
                "dispatch overhead atop the general divide (no small-divisor \
                 operand model in this context)";
            });
    emit = (fun r -> guard (fun () -> Ok (wrapper ~target:(target r) r)));
    model = None;
  }

let div_millicode =
  let target r =
    match (r.op, r.signedness) with
    | Div, Unsigned -> "divU"
    | Div, Signed -> "divI"
    | Rem, Unsigned -> "remU"
    | Rem, Signed -> "remI"
    | (Mul | Divl), _ -> assert false
  in
  let applies r =
    w32_only r
    && (r.op = Div || r.op = Rem)
    && (match constant_of r with
       | Some c -> not (Word.equal c 0l)
       | None -> true)
  in
  {
    name = "div_millicode";
    description = "the general divide-step millicode (section 4)";
    kind = Emits;
    applies;
    cost =
      (fun ctx _ ->
        Ok
          {
            score = ctx.millicode_div_cycles;
            note = "modelled average cycles (divU/divI)";
          });
    emit = (fun r -> guard (fun () -> Ok (wrapper ~target:(target r) r)));
    model = None;
  }

let shift_sub ~name ~score ~note ~description run =
  let divisor_of req y =
    match constant_of req with Some c -> c | None -> y
  in
  {
    name;
    description;
    kind = Modelled;
    applies =
      (fun r ->
        w32_only r
        && (r.op = Div || r.op = Rem)
        && r.signedness = Unsigned
        && (match constant_of r with
           | Some c -> not (Word.equal c 0l)
           | None -> true));
    cost = (fun _ _ -> Ok { score; note });
    emit = (fun _ -> Error "modelled baseline only: no Precision code");
    model =
      Some
        (fun req x y ->
          let d = divisor_of req y in
          if Word.equal d 0l then None
          else Some (run x d : Hppa_baselines.Shift_sub_div.result).cycles);
  }

let baseline_restoring =
  shift_sub ~name:"baseline_restoring" ~score:128
    ~note:"modelled (section 2: up to an add and a subtract per bit)"
    ~description:"restoring shift-and-subtract division (section 2 baseline)"
    Hppa_baselines.Shift_sub_div.restoring

let baseline_nonrestoring =
  shift_sub ~name:"baseline_nonrestoring" ~score:96
    ~note:"modelled (section 2: one add-or-subtract per bit)"
    ~description:
      "non-restoring shift-and-subtract division (section 2 baseline)"
    Hppa_baselines.Shift_sub_div.non_restoring

(* -- the 64-bit (double-word) family --------------------------------- *)

(* The served kernel (Hppa_w64's table) a run-time-operand request
   names; the millicode strategies call its entry. *)
let w64_kernel = function
  | Mul -> Hppa_w64.mul
  | Div -> Hppa_w64.div
  | Rem -> Hppa_w64.rem
  | Divl -> Hppa_w64.divl

let w64_run k signedness =
  w64 (List.find (fun op -> w64_kernel op == k) [ Mul; Div; Rem; Divl ])
    signedness

let w64_millicode_emit r =
  let target =
    Hppa_w64.kernel_entry (w64_kernel r.op) ~signed:(r.signedness = Signed)
  in
  guard (fun () -> Ok (wrapper ~target r))

(* Standalone pair-chain routine pool: product in (ret0:ret1),
   intermediates in the remaining caller-saved pairs; the operand pair
   (arg0:arg1) is left untouched, millicode style. *)
let w64_chain_pool =
  [|
    (Reg.ret0, Reg.ret1);
    (Reg.t2, Reg.t3);
    (Reg.t4, Reg.t5);
    (Reg.arg2, Reg.arg3);
  |]

let w64_chain_for c =
  if Int64.equal c 0L then Error "multiply by zero folds away"
  else
    let abs = Int64.abs c in
    if Int64.compare abs 0L < 0 (* Int64.min_int *)
       || Int64.compare abs 0x7fff_ffffL > 0
    then Error "no chain within the rule program's bounds (constant too wide)"
    else
      match Chain_rules.find ~mode:Chain_rules.Fast (Int64.to_int abs) with
      | None -> Error "no chain within the rule program's bounds"
      | Some chain -> Ok chain

let w64_mul_const_chain =
  let applies r =
    r.width = W64 && r.op = Mul && constant64_of r <> None
    && not r.trap_overflow
  in
  let emit r =
    match constant64_of r with
    | None -> Error "not a 64-bit constant multiply"
    | Some c ->
        Result.bind (w64_chain_for c) (fun chain ->
            guard (fun () ->
                let entry = "mul64_" ^ constant_label64 c in
                let b = Builder.create ~prefix:entry () in
                Builder.label b entry;
                let info =
                  Chain_codegen.body_at_pair
                    ~negate:(Int64.compare c 0L < 0)
                    ~src:(Reg.arg0, Reg.arg1) ~pool:w64_chain_pool chain b
                in
                Builder.insn b Emit.mret;
                Ok
                  {
                    entry;
                    source = Builder.to_source b;
                    spec =
                      routine_spec ~results:[ Reg.ret0; Reg.ret1 ] r entry;
                    deps = [];
                    callee_specs = [];
                    static_instructions = info.Chain_codegen.instructions;
                    detail = Pair_chain chain;
                  }))
  in
  let cost ctx r =
    match constant64_of r with
    | None -> Error "not a 64-bit constant multiply"
    | Some c ->
        Result.bind (w64_chain_for c) (fun chain ->
            match ctx.purpose with
            | Standalone ->
                Result.map
                  (fun em ->
                    {
                      score = em.static_instructions;
                      note = "static instructions (pair carry chains)";
                    })
                  (emit r)
            | Inline_expansion ->
                let len = Chain.length chain in
                if len > ctx.inline_mul_threshold then
                  Error
                    (Printf.sprintf
                       "chain length %d exceeds inline threshold %d" len
                       ctx.inline_mul_threshold)
                else Ok { score = len; note = "inline pair-chain steps" })
  in
  {
    name = "w64_mul_const_chain";
    description =
      "double-word shift-and-add chain for a compile-time multiplier: each \
       section 5 step as an SHD/SHxADD/ADDC carry-chain sequence over \
       register pairs";
    kind = Emits;
    applies;
    cost;
    emit;
    model = None;
  }

let w64_mul_millicode =
  {
    name = "w64_mul_millicode";
    description =
      "the double-word multiply millicode: four 32x32->64 partial products \
       over mulU64, recombined with carry chains (mulU128 / mulI128)";
    kind = Emits;
    applies = (fun r -> r.width = W64 && r.op = Mul && not r.trap_overflow);
    cost =
      (fun ctx _ ->
        Ok
          {
            (* four partial products, each itself a split multiply about
               twice the standard routine, plus recombination *)
            score = (8 * ctx.millicode_mul_cycles) + 40;
            note = "modelled: four mulU64 partial products + recombination";
          });
    emit = w64_millicode_emit;
    model = None;
  }

let w64_div_millicode =
  {
    name = "w64_div_millicode";
    description =
      "the double-word divide/remainder millicode: normalization plus 64/32 \
       divU64 steps with quotient correction (divU64w / divI64w / remU64w / \
       remI64w)";
    kind = Emits;
    applies =
      (fun r ->
        r.width = W64
        && (r.op = Div || r.op = Rem)
        && (match constant64_of r with
           | Some c -> not (Int64.equal c 0L)
           | None -> true));
    cost =
      (fun ctx _ ->
        Ok
          {
            score = (2 * ctx.millicode_div_cycles) + 40;
            note = "modelled: two 64/32 divide steps + correction";
          });
    emit = w64_millicode_emit;
    model = None;
  }

let w64_divl_millicode =
  {
    name = "w64_divl_millicode";
    description =
      "the 128/64 divide millicode: normalization plus two 64/32 \
       estimate-and-correct steps (divU128by64)";
    kind = Emits;
    applies =
      (fun r ->
        r.width = W64 && r.op = Divl && r.signedness = Unsigned
        && r.operand = Variable && not r.trap_overflow);
    cost =
      (fun ctx _ ->
        Ok
          {
            score = (2 * ctx.millicode_div_cycles) + 60;
            note =
              "modelled: normalization + two 64/32 estimate-and-correct steps";
          });
    emit = w64_millicode_emit;
    model = None;
  }

(* ------------------------------------------------------------------ *)
(* Certification                                                       *)

module Reciprocal = Hppa_verify.Reciprocal
module Certificate = Hppa_verify.Certificate

let verify_options = { Cfg.mode = Cfg.Simple; blr_slots = Div_small.threshold }

let certificate_of = function
  | Reciprocal.Certified c -> Ok c
  | Reciprocal.Refuted m -> Error ("refuted: " ^ m)
  | Reciprocal.Unknown m -> Error m

let certify req em =
  match link em with
  | Error e -> Error ("link: " ^ e)
  | Ok prog when req.width = W64 -> (
      match em.detail with
      | Millicode target ->
          certificate_of
            (Hppa_verify.Driver.certify_body
               ~canonical:(Millicode.library ()) prog ~entry:target)
      | Mul_plan _ | Div_plan _ | Pair_chain _ ->
          Error "no certifier covers this W64 emission")
  | Ok prog -> (
      let signed = req.signedness = Signed in
      match (req.op, em.detail) with
      | Mul, _ -> (
          match constant_of req with
          | None -> Error "no certifier covers the variable multiply"
          | Some c -> (
              match
                Hppa_verify.Driver.certify ~options:verify_options prog
                  ~entry:em.entry ~multiplier:c
              with
              | Hppa_verify.Linear.Certified ->
                  Ok
                    (Certificate.v (Certificate.Linear_mul c)
                       [
                         Printf.sprintf
                           "linear-form abstract interpretation: every \
                            return path of %s computes %ld * x (mod 2^32)"
                           em.entry c;
                       ])
              | Hppa_verify.Linear.Refuted m -> Error ("refuted: " ^ m)
              | Hppa_verify.Linear.Unknown m -> Error m))
      | (Div | Rem), Millicode (("divU_small" | "divI_small") as target) ->
          certificate_of
            (Hppa_verify.Driver.certify_dispatch ~options:verify_options prog
               ~entry:target ~signed)
      | (Div | Rem), _ -> (
          match constant_of req with
          | Some c ->
              certificate_of
                (Hppa_verify.Driver.certify_division ~options:verify_options
                   prog ~entry:em.entry
                   ~claim:
                     {
                       Reciprocal.op = (if req.op = Div then `Div else `Rem);
                       signed;
                       divisor = c;
                     })
          | None -> (
              match em.detail with
              | Millicode (("divU" | "divI" | "remU" | "remI") as target) ->
                  (* the wrapper is a bare branch; the certificate is the
                     target's divide-step proof, valid for every divisor *)
                  certificate_of
                    (Hppa_verify.Driver.certify_divstep
                       ~options:verify_options prog ~entry:target ~signed
                       ~want_rem:(req.op = Rem))
              | _ -> Error "no certifier covers this emission"))
      | Divl, _ -> Error "divl is a W64-only operation")

let all =
  [
    mul_const_chain;
    mul_millicode;
    mul_nibble;
    mul_switch;
    mul_naive;
    baseline_booth;
    div_const_strategy;
    div_small_dispatch;
    div_millicode;
    baseline_nonrestoring;
    baseline_restoring;
    w64_mul_const_chain;
    w64_mul_millicode;
    w64_div_millicode;
    w64_divl_millicode;
  ]

let find name = List.find_opt (fun s -> s.name = name) all
