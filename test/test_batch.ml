(* Differential tests: the batched (SoA) engine against the scalar
   threaded engine and the reference interpreter. Every lane of a batch
   must be observationally identical — outcome, all 32 registers, PSW
   C/V, PC, per-lane cycles, full memory — to a scalar machine with the
   same history, over all millicode entries, seeded random programs,
   mixed-lane traps and fuel-boundary lanes, at several widths
   including width 1. The aggregate statistics (executed / nullified /
   taken-branch counts and the mnemonic histogram) must equal the sum
   of the corresponding scalar runs. *)

module Word = Hppa_word.Word
module Machine = Hppa_machine.Machine
module Batch = Hppa_machine.Machine.Batch
module Stats = Hppa_machine.Stats
module Trap = Hppa_machine.Trap

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

(* Compare one batch lane against a scalar machine that ran the same
   program with the same history. [scalar_cycles] is that machine's
   cycle delta for the run being compared. *)
let check_lane ~ctx ~mem_words b ~lane (m, om, scalar_cycles) =
  let ob = Batch.outcome b ~lane in
  if not (outcome_eq ob om) then
    Alcotest.failf "%s lane %d: outcome %s (batch) vs %s (scalar)" ctx lane
      (outcome_str ob) (outcome_str om);
  for i = 0 to 31 do
    let a = Batch.get_reg b ~lane (Reg.of_int i)
    and c = Machine.get m (Reg.of_int i) in
    if not (Word.equal a c) then
      Alcotest.failf "%s lane %d: r%d = %ld (batch) vs %ld (scalar)" ctx lane i
        a c
  done;
  if Batch.carry b ~lane <> Machine.carry m then
    Alcotest.failf "%s lane %d: carry" ctx lane;
  if Batch.v_bit b ~lane <> Machine.v_bit m then
    Alcotest.failf "%s lane %d: V" ctx lane;
  if Batch.pc b ~lane <> Machine.pc m then
    Alcotest.failf "%s lane %d: pc %d vs %d" ctx lane (Batch.pc b ~lane)
      (Machine.pc m);
  if Batch.cycles b ~lane <> scalar_cycles then
    Alcotest.failf "%s lane %d: cycles %d vs %d" ctx lane
      (Batch.cycles b ~lane) scalar_cycles;
  for w = 0 to mem_words - 1 do
    let addr = Int32.of_int (4 * w) in
    match (Batch.load_word b ~lane addr, Machine.load_word m addr) with
    | Ok a, Ok c when Word.equal a c -> ()
    | Ok a, Ok c ->
        Alcotest.failf "%s lane %d: mem[%d] %ld vs %ld" ctx lane (4 * w) a c
    | _ -> Alcotest.failf "%s lane %d: mem[%d] unreadable" ctx lane (4 * w)
  done

(* The aggregate batch statistics must be the lane-sum of the scalars. *)
let check_stats_sum ~ctx b scalars =
  let bs = Batch.stats b in
  let sum f = List.fold_left (fun acc m -> acc + f (Machine.stats m)) 0 scalars in
  if Stats.executed bs <> sum Stats.executed then
    Alcotest.failf "%s: executed %d vs lane sum %d" ctx (Stats.executed bs)
      (sum Stats.executed);
  if Stats.nullified bs <> sum Stats.nullified then
    Alcotest.failf "%s: nullified %d vs lane sum %d" ctx (Stats.nullified bs)
      (sum Stats.nullified);
  if Stats.branches_taken bs <> sum Stats.branches_taken then
    Alcotest.failf "%s: taken %d vs lane sum %d" ctx (Stats.branches_taken bs)
      (sum Stats.branches_taken);
  let add tbl (m, n) =
    Hashtbl.replace tbl m (n + (Option.value ~default:0 (Hashtbl.find_opt tbl m)))
  in
  let expect = Hashtbl.create 32 in
  List.iter
    (fun m -> List.iter (add expect) (Stats.by_mnemonic (Machine.stats m)))
    scalars;
  List.iter
    (fun (m, n) ->
      match Hashtbl.find_opt expect m with
      | Some e when e = n -> ()
      | Some e -> Alcotest.failf "%s: %s count %d vs lane sum %d" ctx m n e
      | None -> Alcotest.failf "%s: unexpected mnemonic %s in batch" ctx m)
    (Stats.by_mnemonic bs)

let gen_value st =
  match Random.State.int st 8 with
  | 0 -> Int32.of_int (Random.State.int st 64)
  | 1 -> Int32.of_int (Random.State.int st 4096 land lnot 3)
  | 2 -> Machine.halt_sentinel
  | 3 ->
      List.nth
        [ 0l; 1l; -1l; 2l; Int32.min_int; Int32.max_int; 0x7fffl; 0x8000l ]
        (Random.State.int st 8)
  | _ ->
      Int32.logor
        (Int32.shift_left (Int32.of_int (Random.State.int st 0x10000)) 16)
        (Int32.of_int (Random.State.int st 0x10000))

let widths = [ 1; 4; 7; 64 ]

(* Every millicode entry, random operands, several widths. Batch lanes
   and their paired scalar machines both persist register state across
   rounds, so the histories stay aligned and every round compares the
   full machine state, not just the returned values. *)
let millicode_differential () =
  let st = Random.State.make [| 0xBA7C; 1987 |] in
  let prog = Hppa.Millicode.resolved () in
  List.iter
    (fun width ->
      let b = Batch.create ~lanes:width prog in
      let scalar = Array.init width (fun _ -> Machine.create prog) in
      let interp =
        Array.init width (fun _ ->
            Machine.create
              ~config:{ Machine.Config.default with engine = false }
              prog)
      in
      List.iter
        (fun entry ->
          for round = 1 to 6 do
            let args =
              Array.init width (fun _ -> [ gen_value st; gen_value st ])
            in
            Batch.call b entry ~args;
            Array.iteri
              (fun l a ->
                let ctx =
                  Printf.sprintf "%s w=%d round %d" entry width round
                in
                let oe, ce = Machine.call_cycles scalar.(l) entry ~args:a in
                check_lane ~ctx ~mem_words:0 b ~lane:l (scalar.(l), oe, ce);
                let oi, ci = Machine.call_cycles interp.(l) entry ~args:a in
                check_lane ~ctx:(ctx ^ " (interp)") ~mem_words:0 b ~lane:l
                  (interp.(l), oi, ci))
              args
          done)
        Hppa.Millicode.entries;
      check_stats_sum
        ~ctx:(Printf.sprintf "millicode w=%d" width)
        b
        (Array.to_list scalar))
    widths

(* One lane divides by zero; its neighbours must be unaffected and the
   trap must be captured on that lane alone. *)
let mixed_lane_traps () =
  let prog = Hppa.Millicode.resolved () in
  let width = 8 in
  let b = Batch.create ~lanes:width prog in
  let scalar = Array.init width (fun _ -> Machine.create prog) in
  let args =
    Array.init width (fun l ->
        if l = 3 then [ 100l; 0l ]
        else [ Int32.of_int ((l * 7919) + 12345); Int32.of_int (l + 2) ])
  in
  Batch.call b "divU" ~args;
  Array.iteri
    (fun l a ->
      let om, cm = Machine.call_cycles scalar.(l) "divU" ~args:a in
      check_lane ~ctx:"mixed traps" ~mem_words:0 b ~lane:l (scalar.(l), om, cm))
    args;
  (match Batch.outcome b ~lane:3 with
  | Machine.Trapped (Trap.Break code) when code = Trap.divide_by_zero_code -> ()
  | o -> Alcotest.failf "lane 3 should divide-trap, got %s" (outcome_str o));
  Array.iteri
    (fun l _ ->
      if l <> 3 then
        match Batch.outcome b ~lane:l with
        | Machine.Halted -> ()
        | o -> Alcotest.failf "lane %d should halt, got %s" l (outcome_str o))
    args;
  let c = Batch.counters b in
  Alcotest.(check int) "lanes_run" width c.Batch.lanes_run;
  Alcotest.(check int) "lanes_trapped" 1 c.Batch.lanes_trapped;
  if c.Batch.dispatches <= 0 then Alcotest.fail "no dispatches counted"

(* Divergent control flow under a tight fuel budget: some lanes halt,
   some exhaust mid-loop, at every fuel level. *)
let fuel_boundary_lanes () =
  let prog = Hppa.Millicode.resolved () in
  let width = 6 in
  let args =
    Array.init width (fun l ->
        [ Int32.of_int ((l * 104729) + 7); Int32.of_int ((l * l) + 1) ])
  in
  for fuel = 0 to 40 do
    let b = Batch.create ~lanes:width prog in
    let scalar = Array.init width (fun _ -> Machine.create prog) in
    Batch.call ~fuel b "divU" ~args;
    Array.iteri
      (fun l a ->
        let om, cm = Machine.call_cycles ~fuel scalar.(l) "divU" ~args:a in
        check_lane
          ~ctx:(Printf.sprintf "fuel %d" fuel)
          ~mem_words:0 b ~lane:l (scalar.(l), om, cm))
      args
  done

(* Seeded random programs (loads, stores, traps, computed branches)
   with per-lane random register images and private memories. Each runs
   at fuel 2000 and again, from the same images, at two small budgets
   (0 .. 50) that run out inside fused blocks on divergent lanes. *)
let random_programs () =
  let st = Random.State.make [| 0xBA7C; 42 |] in
  let width = 8 in
  let mem_bytes = 4096 in
  for p = 1 to 40 do
    let prog = Test_engine.gen_program st in
    let init =
      Array.init width (fun _ ->
          Array.init 31 (fun _ -> Test_engine.gen_value st))
    in
    List.iter
      (fun fuel ->
        let b = Batch.create ~mem_bytes ~lanes:width prog in
        let scalar =
          Array.init width (fun _ -> Machine.create ~mem_bytes prog)
        in
        let interp =
          Array.init width (fun _ ->
              Machine.create ~mem_bytes
                ~config:{ Machine.Config.default with engine = false }
                prog)
        in
        for l = 0 to width - 1 do
          for i = 1 to 31 do
            let v = init.(l).(i - 1) in
            Batch.set_reg b ~lane:l (Reg.of_int i) v;
            Machine.set scalar.(l) (Reg.of_int i) v;
            Machine.set interp.(l) (Reg.of_int i) v
          done
        done;
        let args = Array.make width [] in
        Batch.call ~fuel b "L0" ~args;
        let ctx = Printf.sprintf "program %d fuel %d" p fuel in
        for l = 0 to width - 1 do
          let oe, ce = Machine.call_cycles ~fuel scalar.(l) "L0" ~args:[] in
          check_lane ~ctx ~mem_words:(mem_bytes / 4) b ~lane:l
            (scalar.(l), oe, ce);
          let oi, ci = Machine.call_cycles ~fuel interp.(l) "L0" ~args:[] in
          check_lane ~ctx:(ctx ^ " (interp)") ~mem_words:(mem_bytes / 4) b
            ~lane:l (interp.(l), oi, ci)
        done;
        check_stats_sum ~ctx b (Array.to_list scalar))
      [ 2000; p - 1; p + 10 ]
  done

(* Width-1 batches are just a slow scalar engine; pin the equivalence on
   the divide edge grid, divide-by-zero included. *)
let width_one () =
  let prog = Hppa.Millicode.resolved () in
  List.iter
    (fun entry ->
      let b = Batch.create ~lanes:1 prog in
      let m = Machine.create prog in
      List.iter
        (fun (a, d) ->
          let om, cm = Machine.call_cycles m entry ~args:[ a; d ] in
          Batch.call b entry ~args:[| [ a; d ] |];
          check_lane
            ~ctx:(Printf.sprintf "%s(%ld, %ld)" entry a d)
            ~mem_words:0 b ~lane:0 (m, om, cm))
        [
          (0l, 3l); (1l, 3l); (100l, 7l); (-100l, 7l); (100l, -7l);
          (Int32.min_int, -1l); (Int32.max_int, 1l); (0xffff_ffffl, 2l);
          (7l, 0l); (12345678l, 127l); (-1l, Int32.min_int);
        ])
    [ "divU"; "divI"; "remU"; "remI" ]

(* Each static-branch form taken to a label past the last instruction:
   the target is the image length, so every engine traps [Bad_pc] at
   the branch, after one cycle and without counting the branch taken. *)
let static_bad_pc () =
  let forms : string Insn.t list =
    [
      Comb
        { cond = Cond.Eq; a = Reg.r0; b = Reg.r0; target = "end"; n = false };
      Comib { cond = Cond.Eq; imm = 0l; a = Reg.r0; target = "end"; n = false };
      Addib
        { cond = Cond.Neq; imm = 1l; a = Reg.t1; target = "end"; n = false };
      B { target = "end"; n = false };
      Bl { target = "end"; t = Reg.rp; n = false };
    ]
  in
  List.iter
    (fun insn ->
      let prog =
        Program.resolve_exn
          [ Program.Label "L0"; Program.Insn insn; Program.Label "end" ]
      in
      let ctx = Insn.mnemonic (Program.code prog).(0) in
      let width = 3 in
      let b = Batch.create ~lanes:width prog in
      let args = Array.make width [] in
      Batch.call b "L0" ~args;
      List.iter
        (fun engine ->
          let m =
            Machine.create ~config:{ Machine.Config.default with engine } prog
          in
          let om, cm = Machine.call_cycles m "L0" ~args:[] in
          (match om with
          | Machine.Trapped (Trap.Bad_pc 1) -> ()
          | o -> Alcotest.failf "%s: %s, not bad pc 1" ctx (outcome_str o));
          Alcotest.(check int) (ctx ^ " pc") 0 (Machine.pc m);
          Alcotest.(check int) (ctx ^ " cycles") 1 cm;
          Alcotest.(check int)
            (ctx ^ " taken") 0
            (Stats.branches_taken (Machine.stats m));
          for l = 0 to width - 1 do
            check_lane ~ctx ~mem_words:0 b ~lane:l (m, om, cm)
          done)
        [ true; false ];
      Alcotest.(check int) (ctx ^ " batch taken") 0
        (Stats.branches_taken (Batch.stats b)))
    forms

(* Lanes that run off the end of the image, whether from a body, from a
   terminator, with a nullify pending, or out of a converged loop, trap
   [Bad_pc] at the image length after the scalar engine's cycles — at
   every fuel budget up to the run's length. *)
let off_the_end () =
  let open Program in
  let ldo v t = Insn (Insn.Ldo { imm = v; base = Reg.r0; t }) in
  let comclr cond =
    Insn (Insn.Comclr { cond; a = Reg.r0; b = Reg.r0; t = Reg.t2 })
  in
  let programs =
    [
      ("body last", [ Label "L0"; ldo 1l Reg.t2; Insn Insn.Nop ]);
      ("terminator last", [ Label "L0"; ldo 1l Reg.t2; comclr Cond.Never ]);
      ("nullify pending", [ Label "L0"; comclr Cond.Eq ]);
      ( "converged loop",
        [
          Label "L0";
          ldo 5l Reg.t1;
          Label "loop";
          Insn
            (Insn.Addib
               {
                 cond = Cond.Neq;
                 imm = -1l;
                 a = Reg.t1;
                 target = "loop";
                 n = false;
               });
        ] );
    ]
  in
  List.iter
    (fun (name, src) ->
      let prog = Program.resolve_exn src in
      let width = 3 in
      for fuel = 0 to 12 do
        let b = Batch.create ~lanes:width prog in
        Batch.call ~fuel b "L0" ~args:(Array.make width []);
        let ctx = Printf.sprintf "%s fuel %d" name fuel in
        let scalars =
          List.map
            (fun engine ->
              let config = { Machine.Config.default with engine } in
              let m = Machine.create ~config prog in
              let om, cm = Machine.call_cycles ~fuel m "L0" ~args:[] in
              for l = 0 to width - 1 do
                check_lane ~ctx ~mem_words:0 b ~lane:l (m, om, cm)
              done;
              m)
            [ true; false ]
        in
        check_stats_sum ~ctx b (List.init width (fun _ -> List.hd scalars))
      done;
      let b = Batch.create ~lanes:1 prog in
      Batch.call b "L0" ~args:[| [] |];
      let len = Array.length (Program.code prog) in
      match Batch.outcome b ~lane:0 with
      | Machine.Trapped (Trap.Bad_pc n) when n = len -> ()
      | o ->
          Alcotest.failf "%s: %s, not bad pc at the end" name (outcome_str o))
    programs

(* Lane memory is private and allocated on a lane's first store: the
   store is invisible to the other lanes, still there on the storing
   lane's next calls, and an address nobody stored reads 0 — through
   LDW and through [load_word] alike. *)
let lane_memory () =
  let ret = Insn.Bv { x = Reg.r0; base = Reg.rp; n = false } in
  let prog =
    Program.resolve_exn
      [
        Program.Label "store";
        Program.Insn (Insn.Stw { r = Reg.arg1; disp = 0l; base = Reg.arg0 });
        Program.Insn ret;
        Program.Label "load";
        Program.Insn (Insn.Ldw { disp = 0l; base = Reg.arg0; t = Reg.ret0 });
        Program.Insn ret;
      ]
  in
  let width = 3 in
  let b = Batch.create ~mem_bytes:64 ~lanes:width prog in
  Batch.call b "store" ~args:[| [ 8l; 42l ] |];
  let load ctx addr expect =
    Batch.call b "load" ~args:(Array.make width [ addr ]);
    for l = 0 to width - 1 do
      let want = if l = 0 then expect else 0l in
      Alcotest.(check int32)
        (Printf.sprintf "%s: ldw lane %d" ctx l)
        want
        (Batch.get_reg b ~lane:l Reg.ret0);
      match Batch.load_word b ~lane:l addr with
      | Ok v ->
          Alcotest.(check int32)
            (Printf.sprintf "%s: load_word lane %d" ctx l)
            want v
      | Error _ -> Alcotest.failf "%s: load_word lane %d failed" ctx l
    done
  in
  load "first call after the store" 8l 42l;
  load "a later call" 8l 42l;
  load "an unstored address" 12l 0l;
  (* A lane that never stored reads 0 everywhere in range. *)
  (match Batch.load_word b ~lane:2 60l with
  | Ok 0l -> ()
  | _ -> Alcotest.fail "untouched lane: last word should read 0");
  match Batch.load_word b ~lane:2 64l with
  | Error (Trap.Bad_address _) -> ()
  | _ -> Alcotest.fail "untouched lane: past the image should fault"

(* A call with a lane over the argument limit is rejected before any
   lane is touched: the previous call's outcomes, registers, PCs,
   cycles and statistics all stay as they were. *)
let rejected_call_keeps_state () =
  let prog = Hppa.Millicode.resolved () in
  let width = 6 in
  let b = Batch.create ~lanes:width prog in
  let args =
    Array.init width (fun l ->
        if l = 2 then [ 5l; 0l ] else [ Int32.of_int ((l * 977) + 3); 7l ])
  in
  Batch.call b "divU" ~args;
  let state () =
    List.init width (fun lane ->
        ( outcome_str (Batch.outcome b ~lane),
          List.init 32 (fun i -> Batch.get_reg b ~lane (Reg.of_int i)),
          (Batch.pc b ~lane, Batch.cycles b ~lane),
          (Batch.carry b ~lane, Batch.v_bit b ~lane) ))
  in
  let before = state () in
  let executed = Stats.executed (Batch.stats b) in
  let bad =
    Array.init width (fun l ->
        if l = 3 then List.init 7 Int32.of_int else [ 1l; 1l ])
  in
  Alcotest.check_raises "seven arguments in lane 3"
    (Invalid_argument "Engine_batch.call: more than 6 arguments") (fun () ->
      Batch.call b "mulI" ~args:bad);
  if state () <> before then
    Alcotest.fail "a rejected call changed the lanes' state";
  Alcotest.(check int) "width kept" width (Batch.width b);
  Alcotest.(check int) "executed kept" executed
    (Stats.executed (Batch.stats b))

let suite =
  [
    ( "batch.differential",
      [
        Alcotest.test_case "every millicode entry, widths 1/4/7/64" `Quick
          millicode_differential;
        Alcotest.test_case "mixed-lane divide-by-zero trap" `Quick
          mixed_lane_traps;
        Alcotest.test_case "fuel boundaries 0..40, divergent lanes" `Quick
          fuel_boundary_lanes;
        Alcotest.test_case "40 seeded random programs, width 8" `Quick
          random_programs;
        Alcotest.test_case "width 1 equals the scalar engine" `Quick width_one;
        Alcotest.test_case "static branches past the image trap" `Quick
          static_bad_pc;
        Alcotest.test_case "lanes run off the end of the image" `Quick
          off_the_end;
        Alcotest.test_case "lane memory is private and lazily allocated"
          `Quick lane_memory;
        Alcotest.test_case "a rejected call leaves the last call's state"
          `Quick rejected_call_keeps_state;
      ] );
  ]
