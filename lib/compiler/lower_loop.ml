type t = {
  entry : string;
  source : Program.source;
  millicode_calls : int;
}

let vars_of_loop ~inputs ~result ?(preheader = []) (l : Loop_ir.t) =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let add v =
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.add seen v ();
      out := v :: !out
    end
  in
  List.iter add inputs;
  add l.counter;
  let stmt (Loop_ir.Assign (v, e)) =
    add v;
    List.iter add (Expr.vars e)
  in
  List.iter stmt preheader;
  List.iter stmt l.body;
  add result;
  List.rev !out

let compile32 ?entry ~small_divisor_dispatch ~inputs ~result
    ?(preheader = []) (l : Loop_ir.t) =
  if List.length inputs > 4 then raise (Lower.Unsupported "more than 4 inputs");
  let entry = Option.value entry ~default:"kernel" in
  let names = vars_of_loop ~inputs ~result ~preheader l in
  let pool = Lower.Internal.callee_saved in
  (* One register per variable, one for the loop bound; the rest are
     expression temporaries. *)
  if List.length names + 1 > List.length pool then
    raise (Lower.Unsupported "too many loop variables");
  let vars = List.mapi (fun i v -> (v, List.nth pool i)) names in
  let stop_reg = List.nth pool (List.length names) in
  let temps =
    List.filteri (fun i _ -> i > List.length names) pool
  in
  if List.length temps < 2 then raise (Lower.Unsupported "too many loop variables");
  let reg v = List.assoc v vars in
  let b = Builder.create ~prefix:entry () in
  Builder.label b entry;
  (* Bind inputs; zero everything else (matching Loop_ir.eval with an init
     that lists only the inputs plus implicit zeros). *)
  List.iteri
    (fun i v ->
      Builder.insn b
        (Emit.copy (List.nth [ Reg.arg0; Reg.arg1; Reg.arg2; Reg.arg3 ] i) (reg v)))
    inputs;
  List.iter
    (fun (v, r) ->
      if not (List.mem v inputs) then Builder.insn b (Emit.copy Reg.r0 r))
    vars;
  let st =
    Lower.Internal.make_state b ~vars ~temps ~trap_overflow:false
      ~small_divisor_dispatch
  in
  let emit_stmt (Loop_ir.Assign (v, e)) =
    let r = Lower.Internal.emit_expr st e in
    Builder.insn b (Emit.copy r (reg v));
    Lower.Internal.release st r
  in
  List.iter emit_stmt preheader;
  Builder.insns b (Emit.ldi l.start (reg l.counter));
  Builder.insns b (Emit.ldi l.stop stop_reg);
  let top = entry ^ "$top" and exit_ = entry ^ "$exit" in
  Builder.label b top;
  Builder.insn b (Emit.comb Cond.Ge (reg l.counter) stop_reg exit_);
  List.iter emit_stmt l.body;
  (* Bump the counter; a wide step needs staging through a temporary. *)
  (if l.step >= -8192l && l.step <= 8191l then
     Builder.insn b (Emit.addi l.step (reg l.counter) (reg l.counter))
   else begin
     Builder.insns b (Emit.ldi l.step Reg.t1);
     Builder.insn b (Emit.add Reg.t1 (reg l.counter) (reg l.counter))
   end);
  Builder.insn b (Emit.b top);
  Builder.label b exit_;
  Builder.insns b [ Emit.copy (reg result) Reg.ret0; Emit.ret ];
  let source =
    Program.concat (Builder.to_source b :: Lower.Internal.plans st)
  in
  { entry; source; millicode_calls = Lower.Internal.millicode_calls st }

(* W64: every loop variable holds a dword in a callee-saved pair,
   including the counter, whose high half is kept sign-extended (its
   bounds and step are single words, so loop control compares the low
   halves and each bump re-extends the sign with one SHR). *)
let compile64 ?entry ~small_divisor_dispatch ~inputs ~result
    ?(preheader = []) (l : Loop_ir.t) =
  if List.length inputs > 2 then
    raise
      (Lower.Unsupported
         (Printf.sprintf "%d inputs exceed the 2 double-word argument pairs"
            (List.length inputs)));
  let entry = Option.value entry ~default:"kernel" in
  let names = vars_of_loop ~inputs ~result ~preheader l in
  let pool = Lower.Internal.callee_saved_pairs in
  (* A pair per variable; the loop bound takes one more, and at least
     two pairs must remain as expression temporaries. *)
  if List.length names + 3 > List.length pool then
    raise
      (Lower.Unsupported
         (Printf.sprintf
            "%d double-word loop variables exceed the %d callee-saved pairs \
             (one is the bound, two are temporaries)"
            (List.length names) (List.length pool)));
  let vars = List.mapi (fun i v -> (v, List.nth pool i)) names in
  (* The bound is a single word: use the low register of the next pair. *)
  let stop_reg = snd (List.nth pool (List.length names)) in
  let temps =
    List.filteri (fun i _ -> i > List.length names) pool
  in
  let pair v = List.assoc v vars in
  let b = Builder.create ~prefix:entry () in
  Builder.label b entry;
  List.iteri
    (fun i v ->
      let sh, sl = List.nth [ (Reg.arg0, Reg.arg1); (Reg.arg2, Reg.arg3) ] i in
      let dh, dl = pair v in
      Builder.insns b [ Emit.copy sh dh; Emit.copy sl dl ])
    inputs;
  List.iter
    (fun (v, (rh, rl)) ->
      if not (List.mem v inputs) then
        Builder.insns b [ Emit.copy Reg.r0 rh; Emit.copy Reg.r0 rl ])
    vars;
  let st =
    Lower.Internal.make_state64 b ~vars ~temps ~small_divisor_dispatch
  in
  let emit_stmt (Loop_ir.Assign (v, e)) =
    let rh, rl = Lower.Internal.emit_expr64 st e in
    let dh, dl = pair v in
    Builder.insns b [ Emit.copy rh dh; Emit.copy rl dl ];
    Lower.Internal.release64 st (rh, rl)
  in
  List.iter emit_stmt preheader;
  let ch, cl = pair l.counter in
  Builder.insns b (Emit.ldi l.start cl);
  Builder.insn b (Emit.shr_s cl 31 ch);
  Builder.insns b (Emit.ldi l.stop stop_reg);
  let top = entry ^ "$top" and exit_ = entry ^ "$exit" in
  Builder.label b top;
  Builder.insn b (Emit.comb Cond.Ge cl stop_reg exit_);
  List.iter emit_stmt l.body;
  (if l.step >= -8192l && l.step <= 8191l then
     Builder.insn b (Emit.addi l.step cl cl)
   else begin
     Builder.insns b (Emit.ldi l.step Reg.t1);
     Builder.insn b (Emit.add Reg.t1 cl cl)
   end);
  Builder.insn b (Emit.shr_s cl 31 ch);
  Builder.insn b (Emit.b top);
  Builder.label b exit_;
  let rh, rl = pair result in
  Builder.insns b [ Emit.copy rh Reg.ret0; Emit.copy rl Reg.ret1; Emit.ret ];
  {
    entry;
    source = Builder.to_source b;
    millicode_calls = Lower.Internal.millicode_calls64 st;
  }

let compile ?entry ?(small_divisor_dispatch = false) ?(width = Expr.W32)
    ~inputs ~result ?preheader (l : Loop_ir.t) =
  (match Loop_ir.validate l with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Lower_loop.compile: " ^ msg));
  match width with
  | Expr.W32 ->
      compile32 ?entry ~small_divisor_dispatch ~inputs ~result ?preheader l
  | Expr.W64 ->
      compile64 ?entry ~small_divisor_dispatch ~inputs ~result ?preheader l

let compile_and_link ?entry ?small_divisor_dispatch ?width ~inputs ~result
    ?preheader l =
  let unit_ =
    compile ?entry ?small_divisor_dispatch ?width ~inputs ~result ?preheader l
  in
  Millicode.link unit_.source

let compile_reduced ?entry ?small_divisor_dispatch ?width ~inputs ~result
    (r : Strength.reduced) =
  compile ?entry ?small_divisor_dispatch ?width ~inputs ~result
    ~preheader:r.preheader r.loop
