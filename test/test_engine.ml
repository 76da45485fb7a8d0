(* Differential tests: the threaded engine against the reference
   interpreter. The engine must be observationally identical — outcome,
   all 32 registers, PSW C/V, nullify flag, PC, full memory, and every
   statistics counter — on seeded random programs, on every millicode
   entry point, and across fuel boundaries. Delay-slot machines and
   machines with observation hooks must stay on the reference path. *)

module Word = Hppa_word.Word
module Machine = Hppa_machine.Machine
module Stats = Hppa_machine.Stats
module Trap = Hppa_machine.Trap
module Icache = Hppa_machine.Icache
module Sweep = Hppa_machine.Sweep

let fuzz_mem_bytes = 4096

let outcome_str = function
  | Machine.Halted -> "halted"
  | Machine.Trapped t -> "trapped: " ^ Trap.to_string t
  | Machine.Fuel_exhausted -> "fuel exhausted"

let outcome_eq a b =
  match (a, b) with
  | Machine.Halted, Machine.Halted -> true
  | Machine.Fuel_exhausted, Machine.Fuel_exhausted -> true
  | Machine.Trapped x, Machine.Trapped y -> Trap.equal x y
  | _ -> false

(* Compare every observable of two machines that ran the same program. *)
let check_same ~ctx ~mem_words (me, oe) (mi, oi) =
  if not (outcome_eq oe oi) then
    Alcotest.failf "%s: outcome %s (engine) vs %s (interpreter)" ctx
      (outcome_str oe) (outcome_str oi);
  for i = 0 to 31 do
    let a = Machine.get me (Reg.of_int i) and b = Machine.get mi (Reg.of_int i) in
    if not (Word.equal a b) then
      Alcotest.failf "%s: r%d = %ld (engine) vs %ld (interpreter)" ctx i a b
  done;
  if Machine.carry me <> Machine.carry mi then Alcotest.failf "%s: carry" ctx;
  if Machine.v_bit me <> Machine.v_bit mi then Alcotest.failf "%s: V" ctx;
  if Machine.pc me <> Machine.pc mi then
    Alcotest.failf "%s: pc %d vs %d" ctx (Machine.pc me) (Machine.pc mi);
  let se = Machine.stats me and si = Machine.stats mi in
  if Stats.cycles se <> Stats.cycles si then
    Alcotest.failf "%s: cycles %d vs %d" ctx (Stats.cycles se) (Stats.cycles si);
  if Stats.executed se <> Stats.executed si then
    Alcotest.failf "%s: executed %d vs %d" ctx (Stats.executed se)
      (Stats.executed si);
  if Stats.nullified se <> Stats.nullified si then
    Alcotest.failf "%s: nullified %d vs %d" ctx (Stats.nullified se)
      (Stats.nullified si);
  if Stats.branches_taken se <> Stats.branches_taken si then
    Alcotest.failf "%s: taken %d vs %d" ctx (Stats.branches_taken se)
      (Stats.branches_taken si);
  if Stats.by_mnemonic se <> Stats.by_mnemonic si then
    Alcotest.failf "%s: mnemonic histogram differs" ctx;
  for w = 0 to mem_words - 1 do
    let addr = Int32.of_int (4 * w) in
    match (Machine.load_word me addr, Machine.load_word mi addr) with
    | Ok a, Ok b when Word.equal a b -> ()
    | Ok a, Ok b -> Alcotest.failf "%s: mem[%d] %ld vs %ld" ctx (4 * w) a b
    | _ -> Alcotest.failf "%s: mem[%d] unreadable" ctx (4 * w)
  done

(* ------------------------------------------------------------------ *)
(* Seeded random program generator                                     *)

(* Branch targets are drawn from the labels L0 .. L(n_labels - 1). *)
let gen_insn st n_labels : string Insn.t =
  let ri () = Random.State.int st in
  let reg () = Reg.of_int (ri () 32) in
  let cond () = List.nth Cond.all (ri () (List.length Cond.all)) in
  let lbl () = Printf.sprintf "L%d" (ri () n_labels) in
  let simm bits = Int32.of_int (ri () (1 lsl bits) - (1 lsl (bits - 1))) in
  let n () = Random.State.bool st in
  match ri () 100 with
  | x when x < 28 ->
      let op, may_trap =
        match ri () 9 with
        | 0 -> (Insn.Add, true)
        | 1 -> (Insn.Addc, true)
        | 2 -> (Insn.Sub, true)
        | 3 -> (Insn.Subb, true)
        | 4 -> (Insn.Shadd (1 + ri () 3), true)
        | 5 -> (Insn.And, false)
        | 6 -> (Insn.Or, false)
        | 7 -> (Insn.Xor, false)
        | _ -> (Insn.Andcm, false)
      in
      Alu
        {
          op;
          a = reg ();
          b = reg ();
          t = reg ();
          trap_ov = (may_trap && ri () 5 = 0);
        }
  | x when x < 34 -> Ds { a = reg (); b = reg (); t = reg () }
  | x when x < 41 ->
      Addi { imm = simm 14; a = reg (); t = reg (); trap_ov = ri () 5 = 0 }
  | x when x < 45 ->
      Subi { imm = simm 11; a = reg (); t = reg (); trap_ov = ri () 5 = 0 }
  | x when x < 51 -> Comclr { cond = cond (); a = reg (); b = reg (); t = reg () }
  | x when x < 55 ->
      Comiclr { cond = cond (); imm = simm 11; a = reg (); t = reg () }
  | x when x < 61 ->
      let pos = ri () 32 in
      let len = 1 + ri () (32 - pos) in
      Extr
        {
          signed = Random.State.bool st;
          r = reg ();
          pos;
          len;
          t = reg ();
          cond = (if Random.State.bool st then Cond.Never else cond ());
        }
  | x when x < 65 ->
      let pos = ri () 32 in
      let len = 1 + ri () (32 - pos) in
      Zdep { r = reg (); pos; len; t = reg () }
  | x when x < 68 -> Shd { a = reg (); b = reg (); sa = ri () 32; t = reg () }
  | x when x < 71 ->
      Ldil { imm = Int32.shift_left (Int32.of_int (ri () 0x20_0000)) 11; t = reg () }
  | x when x < 75 -> Ldo { imm = simm 14; base = reg (); t = reg () }
  | x when x < 78 -> Ldw { disp = simm 14; base = reg (); t = reg () }
  | x when x < 81 -> Stw { r = reg (); disp = simm 14; base = reg () }
  | x when x < 83 -> Ldaddr { target = lbl (); t = reg () }
  | x when x < 88 ->
      Comb { cond = cond (); a = reg (); b = reg (); target = lbl (); n = n () }
  | x when x < 91 ->
      Comib { cond = cond (); imm = simm 5; a = reg (); target = lbl (); n = n () }
  | x when x < 94 ->
      Addib { cond = cond (); imm = simm 5; a = reg (); target = lbl (); n = n () }
  | x when x < 96 -> B { target = lbl (); n = n () }
  | 96 -> Bl { target = lbl (); t = reg (); n = n () }
  | 97 -> Blr { x = reg (); t = reg (); n = n () }
  | 98 -> Bv { x = reg (); base = reg (); n = n () }
  | _ -> if ri () 3 = 0 then Break { code = ri () 32 } else Nop

let gen_program st =
  let n = 8 + Random.State.int st 33 in
  (* Every third program also ends on a label L<n> after its last
     instruction. It resolves to the image length, so a static branch
     that draws it traps [Bad_pc] at the branch. *)
  let trailing = n mod 3 = 0 in
  let n_labels = if trailing then n + 1 else n in
  let body =
    List.concat
      (List.init n (fun i ->
           [
             Program.Label (Printf.sprintf "L%d" i);
             Program.Insn (gen_insn st n_labels);
           ]))
  in
  (* End on a procedure return so straight-line fall-through halts. *)
  let src =
    body
    @ [ Program.Insn (Bv { x = Reg.r0; base = Reg.rp; n = false }) ]
    @ if trailing then [ Program.Label (Printf.sprintf "L%d" n) ] else []
  in
  match Program.resolve src with
  | Ok p -> p
  | Error e -> Alcotest.failf "generated program does not resolve: %s" e

(* A register-value generator biased toward the constants where
   arithmetic and addressing bugs live. *)
let gen_value st =
  match Random.State.int st 8 with
  | 0 -> Int32.of_int (Random.State.int st 64)
  | 1 -> Int32.of_int (Random.State.int st fuzz_mem_bytes land lnot 3)
  | 2 -> Machine.halt_sentinel
  | 3 ->
      List.nth
        [ 0l; 1l; -1l; 2l; Int32.min_int; Int32.max_int; 0x7fffl; 0x8000l ]
        (Random.State.int st 8)
  | _ ->
      Int32.logor
        (Int32.shift_left (Int32.of_int (Random.State.int st 0x10000)) 16)
        (Int32.of_int (Random.State.int st 0x10000))

let gen_init st = Array.init 32 (fun _ -> gen_value st)

let run_differential ?(fuel = 2000) ~delay ~init prog =
  let mk engine =
    let config = { Machine.Config.default with engine } in
    let m =
      Machine.create ~mem_bytes:fuzz_mem_bytes ~delay_slots:delay ~config prog
    in
    for i = 1 to 31 do
      Machine.set m (Reg.of_int i) init.(i)
    done;
    m
  in
  let me = mk true and mi = mk false in
  let oe = Machine.call ~fuel me "L0" ~args:[] in
  let oi = Machine.call ~fuel mi "L0" ~args:[] in
  ((me, oe), (mi, oi))

(* Each program runs at fuel 2000 and again, from the same registers,
   at a small budget (0 .. 50) that runs out inside a block or a
   nullify shadow. *)
let fuzz_default () =
  let st = Random.State.make [| 0x5ee0; 1987 |] in
  for i = 1 to 1200 do
    let prog = gen_program st in
    let init = gen_init st in
    List.iter
      (fun fuel ->
        let (me, oe), (mi, oi) =
          run_differential ~fuel ~delay:false ~init prog
        in
        if not (Machine.used_engine me) then
          Alcotest.failf "program %d: engine path not taken" i;
        if Machine.used_engine mi then
          Alcotest.failf "program %d: disabled engine still ran" i;
        check_same
          ~ctx:(Printf.sprintf "program %d fuel %d" i fuel)
          ~mem_words:(fuzz_mem_bytes / 4) (me, oe) (mi, oi))
      [ 2000; i mod 51 ]
  done

let fuzz_delay () =
  let st = Random.State.make [| 0xde1a; 1987 |] in
  for i = 1 to 300 do
    let prog = gen_program st in
    let (me, oe), (mi, oi) =
      run_differential ~delay:true ~init:(gen_init st) prog
    in
    (* Delay-slot mode is outside the engine's reach: both machines must
       take the reference interpreter, engine switch notwithstanding. *)
    if Machine.used_engine me then
      Alcotest.failf "delay program %d: engine used in delay-slot mode" i;
    check_same
      ~ctx:(Printf.sprintf "delay program %d" i)
      ~mem_words:(fuzz_mem_bytes / 4) (me, oe) (mi, oi)
  done

(* ------------------------------------------------------------------ *)
(* Millicode differential                                              *)

let millicode_differential () =
  let st = Random.State.make [| 0x311; 42 |] in
  let prog = Hppa.Millicode.resolved () in
  let me = Machine.create prog in
  let mi =
    Machine.create ~config:{ Machine.Config.default with engine = false } prog
  in
  List.iter
    (fun entry ->
      for _ = 1 to 25 do
        let a = gen_value st and b = gen_value st in
        let oe = Machine.call me entry ~args:[ a; b ] in
        let oi = Machine.call mi entry ~args:[ a; b ] in
        if Machine.used_engine mi then
          Alcotest.failf "%s: disabled engine ran" entry;
        check_same
          ~ctx:(Printf.sprintf "%s(%ld, %ld)" entry a b)
          ~mem_words:0 (me, oe) (mi, oi)
      done)
    Hppa.Millicode.entries

(* The divide entries drive DS loops with ADDC shift-in; pin a dense
   operand grid on them specifically, including divide-by-zero traps. *)
let divide_loops () =
  let prog = Hppa.Millicode.resolved () in
  let me = Machine.create prog in
  let mi =
    Machine.create ~config:{ Machine.Config.default with engine = false } prog
  in
  List.iter
    (fun entry ->
      List.iter
        (fun (a, b) ->
          let oe = Machine.call me entry ~args:[ a; b ] in
          let oi = Machine.call mi entry ~args:[ a; b ] in
          check_same
            ~ctx:(Printf.sprintf "%s(%ld, %ld)" entry a b)
            ~mem_words:0 (me, oe) (mi, oi))
        [
          (0l, 3l); (1l, 3l); (100l, 7l); (-100l, 7l); (100l, -7l);
          (Int32.min_int, -1l); (Int32.max_int, 1l); (0xffff_ffffl, 2l);
          (7l, 0l); (12345678l, 127l); (-1l, Int32.min_int);
        ])
    [ "divU"; "divI"; "remU"; "remI" ]

(* ------------------------------------------------------------------ *)
(* Deterministic corner programs                                       *)

(* A COMCLR whose shadow covers a taken branch, then a loop: the
   nullified/executed split and taken-branch counts must match at every
   fuel level, including mid-block and mid-shadow exhaustion. *)
let fuel_boundary_program () =
  Program.resolve_exn
    [
      Program.Label "L0";
      Program.Insn (Ldo { imm = 5l; base = Reg.r0; t = Reg.t2 });
      Program.Insn
        (Comclr { cond = Cond.Always; a = Reg.r0; b = Reg.r0; t = Reg.r0 });
      Program.Insn (B { target = "L0"; n = false });
      Program.Label "loop";
      Program.Insn (Addi { imm = 1l; a = Reg.t3; t = Reg.t3; trap_ov = false });
      Program.Insn
        (Addib { cond = Cond.Neq; imm = -1l; a = Reg.t2; target = "loop"; n = false });
      Program.Insn
        (Comiclr { cond = Cond.Lt; imm = 0l; a = Reg.t3; t = Reg.r0 });
      Program.Insn (Break { code = 7 });
      Program.Insn (Bv { x = Reg.r0; base = Reg.rp; n = false });
    ]

let fuel_boundaries () =
  let prog = fuel_boundary_program () in
  for fuel = 0 to 40 do
    let mk engine =
      Machine.create ~config:{ Machine.Config.default with engine } prog
    in
    let me = mk true and mi = mk false in
    let oe = Machine.call ~fuel me "L0" ~args:[] in
    let oi = Machine.call ~fuel mi "L0" ~args:[] in
    check_same ~ctx:(Printf.sprintf "fuel %d" fuel) ~mem_words:0 (me, oe)
      (mi, oi)
  done

(* ------------------------------------------------------------------ *)
(* Observation hooks force the reference path                          *)

let icache_stays_reference () =
  let m = Hppa.Millicode.machine () in
  let cache = Icache.create () in
  Machine.set_icache m (Some cache);
  (match Machine.call m "mulI" ~args:[ 1234l; 567l ] with
  | Machine.Halted -> ()
  | o -> Alcotest.failf "mulI: %s" (outcome_str o));
  if Machine.used_engine m then
    Alcotest.fail "icache attached but the engine ran";
  if Icache.hits cache + Icache.misses cache = 0 then
    Alcotest.fail "icache attached but saw no fetches";
  (* Detach: the same machine must hop back onto the engine. *)
  Machine.set_icache m None;
  (match Machine.call m "mulI" ~args:[ 1234l; 567l ] with
  | Machine.Halted -> ()
  | o -> Alcotest.failf "mulI: %s" (outcome_str o));
  if not (Machine.used_engine m) then
    Alcotest.fail "icache detached but the engine did not run"

let trace_stays_reference () =
  let m = Hppa.Millicode.machine () in
  let count = ref 0 in
  Machine.set_trace m (Some (fun _ _ -> incr count));
  ignore (Machine.call m "mulI" ~args:[ 99l; 3l ]);
  if Machine.used_engine m then Alcotest.fail "trace attached but engine ran";
  if !count = 0 then Alcotest.fail "trace hook never fired"

(* ------------------------------------------------------------------ *)
(* Sweep harness                                                       *)

let sweep_map_array () =
  let seq = Array.init 100 (fun i -> (i * i) + 3) in
  List.iter
    (fun domains ->
      let par = Sweep.map_array ~domains (fun i -> (i * i) + 3) 100 in
      Alcotest.(check (array int))
        (Printf.sprintf "map_array domains=%d" domains)
        seq par)
    [ 1; 3; 4; 7 ]

let sweep_ranges_cover () =
  List.iter
    (fun (n, domains) ->
      let ranges = Sweep.map_ranges ~domains (fun ~lo ~hi -> (lo, hi)) n in
      let total = List.fold_left (fun acc (lo, hi) -> acc + (hi - lo)) 0 ranges in
      Alcotest.(check int)
        (Printf.sprintf "n=%d domains=%d total" n domains)
        n total;
      (* Contiguous, in order. *)
      ignore
        (List.fold_left
           (fun expect (lo, hi) ->
             Alcotest.(check int) "contiguous" expect lo;
             Alcotest.(check bool) "nonempty or trailing" true (hi >= lo);
             hi)
           0 ranges))
    [ (10, 3); (1, 4); (7, 7); (100, 4); (3, 8) ]

let sweep_machines () =
  (* Per-domain machine contexts: the same mulI sweep on 1 and 3 domains
     must agree element by element. *)
  let xs = Array.init 24 (fun i -> Int32.of_int ((i * 7919) + 3)) in
  let run domains =
    Sweep.sweep ~domains
      ~make:(fun () -> Hppa.Millicode.machine ())
      (fun m x ->
        match Machine.call m "mulI" ~args:[ x; 12345l ] with
        | Machine.Halted -> Machine.get m Reg.ret0
        | o -> Alcotest.failf "mulI trap in sweep: %s" (outcome_str o))
      xs
  in
  Alcotest.(check (array int32)) "sweep domains 1 vs 3" (run 1) (run 3)

let lengths_table_deterministic () =
  let a = Hppa.Chain_search.lengths_table ~max_len:4 ~limit:300 () in
  let b = Hppa.Chain_search.lengths_table ~domains:3 ~max_len:4 ~limit:300 () in
  for n = 1 to 300 do
    Alcotest.(check (option int))
      (Printf.sprintf "l(%d)" n)
      (Hppa.Chain_search.length_of a n)
      (Hppa.Chain_search.length_of b n)
  done

let suite =
  [
    ( "engine.differential",
      [
        Alcotest.test_case "1200 seeded programs, default model" `Quick
          fuzz_default;
        Alcotest.test_case "300 seeded programs, delay-slot model" `Quick
          fuzz_delay;
        Alcotest.test_case "every millicode entry, random operands" `Quick
          millicode_differential;
        Alcotest.test_case "divide DS loops, edge operands" `Quick divide_loops;
        Alcotest.test_case "fuel boundaries 0..40" `Quick fuel_boundaries;
      ] );
    ( "engine.dispatch",
      [
        Alcotest.test_case "icache keeps the reference path" `Quick
          icache_stays_reference;
        Alcotest.test_case "trace keeps the reference path" `Quick
          trace_stays_reference;
      ] );
    ( "engine.sweep",
      [
        Alcotest.test_case "map_array matches sequential" `Quick sweep_map_array;
        Alcotest.test_case "ranges partition the index space" `Quick
          sweep_ranges_cover;
        Alcotest.test_case "machine sweep deterministic" `Quick sweep_machines;
        Alcotest.test_case "lengths_table deterministic across domains" `Quick
          lengths_table_deterministic;
      ] );
  ]
