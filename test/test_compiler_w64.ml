(* Differential suite for the width-polymorphic pipeline at Expr.W64:
   random 64-bit expressions and loops lowered onto register pairs and
   executed on the reference interpreter, the threaded-code engine and
   the SoA batch engine against Expr.eval64 / Loop_ir.eval64 — plus the
   divU128by64 kernel against its two-word OCaml model, and the
   certified-selection guarantees for the W64 strategies. *)

module Machine = Hppa_machine.Machine
module Trap = Hppa_machine.Trap
module W64 = Hppa_w64
module Strategy = Hppa_plan.Strategy
module Selector = Hppa_plan.Selector
open Util
open Hppa_compiler

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

(* A dword generator mixing full-range values with small magnitudes and
   the boundary constants where carry-chain bugs live. *)
let gen_dword =
  let open QCheck.Gen in
  let full_range =
    map2
      (fun hi lo ->
        Int64.logor
          (Int64.shift_left (Int64.of_int32 hi) 32)
          (Int64.logand (Int64.of_int32 lo) 0xFFFF_FFFFL))
      gen_word gen_word
  in
  frequency
    [
      (4, full_range);
      (3, map Int64.of_int (int_range (-65536) 65535));
      ( 2,
        oneofl
          [
            0L; 1L; -1L; 2L; -2L; 15L; 0xFFFF_FFFFL; 0x1_0000_0000L;
            0x1_0000_0001L; Int64.max_int; Int64.min_int;
            Int64.add Int64.min_int 1L; 0x5555_5555_5555_5555L;
          ] );
    ]

let arb_dword = QCheck.make ~print:(Printf.sprintf "%Ld") gen_dword

(* Well-typed W64 expressions over x and y. Divisors are nonzero
   constants other than -1, so the only divergence between the machine
   (which traps on -2^63 / -1) and Int64.div (which pins it) cannot be
   generated; the trap cases are tested directly below. *)
let gen_expr64 : Expr.t QCheck.Gen.t =
  let open QCheck.Gen in
  let gen_const =
    oneof
      [
        map (fun i -> Expr.Const (Int32.of_int i)) (int_range (-5000) 5000);
        map (fun c -> Expr.Const64 c) gen_dword;
      ]
  in
  let gen_divisor =
    oneof
      [
        map
          (fun i ->
            Expr.Const (Int32.of_int (if i >= 0 then i + 1 else i - 1)))
          (int_range (-500) 500);
        map
          (fun c ->
            Expr.Const64
              (if Int64.equal c 0L || Int64.equal c (-1L) then 3L else c))
          gen_dword;
      ]
  in
  let gen_leaf = oneof [ gen_const; oneofl [ Expr.Var "x"; Expr.Var "y" ] ] in
  fix
    (fun self depth ->
      if depth = 0 then gen_leaf
      else
        frequency
          [
            (2, gen_leaf);
            ( 2,
              map2
                (fun a b -> Expr.Add (a, b))
                (self (depth - 1)) (self (depth - 1)) );
            ( 2,
              map2
                (fun a b -> Expr.Sub (a, b))
                (self (depth - 1)) (self (depth - 1)) );
            ( 2,
              map2
                (fun a b -> Expr.Mul (a, b))
                (self (depth - 1)) (self (depth - 1)) );
            (1, map2 (fun a d -> Expr.Div (a, d)) (self (depth - 1)) gen_divisor);
            (1, map2 (fun a d -> Expr.Rem (a, d)) (self (depth - 1)) gen_divisor);
            (1, map (fun a -> Expr.Neg a) (self (depth - 1)));
          ])
    3

let arb_expr64 = QCheck.make ~print:(Format.asprintf "%a" Expr.pp) gen_expr64

(* ------------------------------------------------------------------ *)
(* Expression lowering = eval64, on all three engines                  *)

let result_pair get =
  W64.join (get Reg.ret0) (get Reg.ret1)

let compile64 e =
  Lower.compile_and_link ~width:Expr.W64 ~entry:"f" ~params:[ "x"; "y" ] e

let run64 ~engine prog x y =
  let config = { Machine.Config.default with Machine.Config.engine } in
  let mach = Machine.create ~config prog in
  match Machine.call mach "f" ~args:(W64.operands x y) with
  | Machine.Halted -> Ok (result_pair (Machine.get mach))
  | Machine.Trapped t -> Error t
  | Machine.Fuel_exhausted -> Error (Trap.Break 31)

let prop_lowering64 name ~engine =
  QCheck.Test.make ~name ~count:200
    (QCheck.triple arb_expr64 arb_dword arb_dword) (fun (e, x, y) ->
      let env v = if v = "x" then x else y in
      match run64 ~engine (compile64 e) x y with
      | Ok got -> Int64.equal got (Expr.eval64 ~env e)
      | Error _ -> false)

let prop_lowering64_batch =
  QCheck.Test.make ~name:"W64 lowering on the batch engine = eval64" ~count:60
    (QCheck.pair arb_expr64
       (QCheck.list_of_size (QCheck.Gen.int_range 1 8)
          (QCheck.pair arb_dword arb_dword)))
    (fun (e, operands) ->
      QCheck.assume (operands <> []);
      let env_of (x, y) v = if v = "x" then x else y in
      let prog = compile64 e in
      let b = Machine.Batch.create ~lanes:(List.length operands) prog in
      let args =
        Array.of_list (List.map (fun (x, y) -> W64.operands x y) operands)
      in
      Machine.Batch.call b "f" ~args;
      List.for_all
        (fun (lane, op) ->
          match Machine.Batch.outcome b ~lane with
          | Hppa_machine.Cpu.Halted ->
              Int64.equal
                (result_pair (Machine.Batch.get_reg b ~lane))
                (Expr.eval64 ~env:(env_of op) e)
          | Hppa_machine.Cpu.Trapped _ | Hppa_machine.Cpu.Fuel_exhausted ->
              false)
        (List.mapi (fun i op -> (i, op)) operands))

let test_w64_trap_cases () =
  (* A variable zero divisor must BREAK (divide by zero), and the one
     quotient Int64.div pins but the architecture rejects — -2^63 / -1 —
     must BREAK with the overflow code, at Div and Rem alike. *)
  let div = compile64 (Expr.Div (Var "x", Var "y")) in
  let rem = compile64 (Expr.Rem (Var "x", Var "y")) in
  (match run64 ~engine:true div 5L 0L with
  | Error (Trap.Break c) when c = Trap.divide_by_zero_code -> ()
  | Error t -> Alcotest.failf "wrong trap: %s" (Trap.to_string t)
  | Ok v -> Alcotest.failf "no trap, got %Ld" v);
  (match run64 ~engine:true div Int64.min_int (-1L) with
  | Error (Trap.Break c) when c = Hppa.Div_ext.overflow_break_code -> ()
  | Error t -> Alcotest.failf "wrong trap: %s" (Trap.to_string t)
  | Ok v -> Alcotest.failf "no trap, got %Ld" v);
  (match run64 ~engine:true rem Int64.min_int (-1L) with
  | Error (Trap.Break c) when c = Hppa.Div_ext.overflow_break_code -> ()
  | Error t -> Alcotest.failf "wrong trap: %s" (Trap.to_string t)
  | Ok v -> Alcotest.failf "no trap, got %Ld" v);
  (* A constant divisor never traps for representable quotients. *)
  match run64 ~engine:true (compile64 (Expr.Div (Var "x", Const64 (-1L))))
          Int64.max_int 0L
  with
  | Ok v -> Alcotest.(check bool) "max/-1" true (Int64.equal v Int64.min_int |> not && Int64.equal v (Int64.neg Int64.max_int))
  | Error t -> Alcotest.failf "spurious trap: %s" (Trap.to_string t)

let test_w64_unsupported_names_expression () =
  (* The improved Unsupported message names the offending expression and
     the pair-pool size. *)
  let rec wide n =
    if n = 0 then Expr.Var "x" else Expr.Add (wide (n - 1), wide (n - 1))
  in
  match Lower.compile ~width:Expr.W64 ~entry:"f" ~params:[ "x" ] (wide 14) with
  | exception Lower.Unsupported msg ->
      Alcotest.(check bool)
        (Printf.sprintf "message names the pool (%s)" msg)
        true
        (let has needle =
           let nl = String.length needle and hl = String.length msg in
           let rec go i =
             i + nl <= hl && (String.sub msg i nl = needle || go (i + 1))
           in
           go 0
         in
         has "out of registers" && has "pair")
  | _ -> Alcotest.fail "register exhaustion not detected"

(* ------------------------------------------------------------------ *)
(* Loops at W64                                                        *)

let gen_loop64 : Loop_ir.t QCheck.Gen.t =
  let open QCheck.Gen in
  let gen_body_expr =
    frequency
      [
        ( 3,
          map
            (fun c -> Expr.Add (Var "acc", Expr.Mul (Var "i", Const64 c)))
            gen_dword );
        ( 2,
          map
            (fun c -> Expr.Mul (Var "i", Const (Int32.of_int c)))
            (int_range (-100) 100) );
        (1, return (Expr.Mul (Var "i", Var "acc")));
        (1, map (fun c -> Expr.Add (Var "i", Const64 c)) gen_dword);
      ]
  in
  int_range (-50) 50 >>= fun start ->
  int_range 0 40 >>= fun trip ->
  int_range 1 3 >>= fun step ->
  list_size (int_range 1 2) gen_body_expr >>= fun body ->
  return
    Loop_ir.
      {
        counter = "i";
        start = Int32.of_int start;
        stop = Int32.of_int (start + (trip * step));
        step = Int32.of_int step;
        body = List.map (fun e -> Loop_ir.Assign ("acc", e)) body;
      }

let arb_loop64 =
  QCheck.make ~print:(fun l -> Format.asprintf "%a" Loop_ir.pp l) gen_loop64

let run_kernel64 prog args =
  let mach = Machine.create prog in
  match Machine.call mach "k" ~args with
  | Machine.Halted -> Ok (result_pair (Machine.get mach))
  | Machine.Trapped t -> Error (Trap.to_string t)
  | Machine.Fuel_exhausted -> Error "fuel"

let loop64_init = [ ("acc", 3L); ("n", 7L) ]
let loop64_args = W64.operands 3L 7L

let prop_loop64_matches_eval64 =
  QCheck.Test.make ~name:"compiled W64 loops = Loop_ir.eval64" ~count:100
    arb_loop64 (fun l ->
      QCheck.assume (Loop_ir.trip_count l <= 60);
      let expect = List.assoc "acc" (Loop_ir.eval64 l ~init:loop64_init) in
      let prog =
        Lower_loop.compile_and_link ~width:Expr.W64 ~entry:"k"
          ~inputs:[ "acc"; "n" ] ~result:"acc" l
      in
      match run_kernel64 prog loop64_args with
      | Ok v -> Int64.equal v expect
      | Error _ -> false)

let prop_reduced_loop64_matches_eval64 =
  QCheck.Test.make ~name:"compiled reduced W64 loops = eval_reduced64"
    ~count:100 arb_loop64 (fun l ->
      QCheck.assume (Loop_ir.trip_count l <= 60);
      let reduced = Strength.reduce ~width:Expr.W64 l in
      let expect =
        List.assoc "acc" (Strength.eval_reduced64 reduced ~init:loop64_init)
      in
      let unit_ =
        Lower_loop.compile_reduced ~width:Expr.W64 ~entry:"k"
          ~inputs:[ "acc"; "n" ] ~result:"acc" reduced
      in
      let prog =
        Program.resolve_exn
          (Program.concat [ unit_.source; Hppa.Millicode.source ])
      in
      match run_kernel64 prog loop64_args with
      | Ok v -> Int64.equal v expect
      | Error _ -> false)

let prop_strength64_preserves_semantics =
  QCheck.Test.make ~name:"W64 strength reduction preserves eval64" ~count:300
    arb_loop64 (fun l ->
      let r = Strength.reduce ~width:Expr.W64 l in
      Loop_ir.eval64 l ~init:loop64_init
      = Strength.eval_reduced64 r ~init:loop64_init)

let test_strength64_removes_wide_multiplier () =
  (* A multiplier too wide for any inline chain still reduces. *)
  let l =
    Loop_ir.
      {
        counter = "i";
        start = 0l;
        stop = 10l;
        step = 1l;
        body =
          [
            Assign
              ( "j",
                Expr.Add (Var "j", Expr.Mul (Var "i", Const64 0x1_0000_0018L))
              );
          ];
      }
  in
  let r = Strength.reduce ~width:Expr.W64 l in
  Alcotest.(check int) "one multiply removed" 1 r.multiplies_removed;
  let want = List.assoc "j" (Loop_ir.eval64 l ~init:[ ("j", 0L) ]) in
  let got = List.assoc "j" (Strength.eval_reduced64 r ~init:[ ("j", 0L) ]) in
  Alcotest.(check bool) "semantics preserved" true (Int64.equal want got)

(* ------------------------------------------------------------------ *)
(* divU128by64 against the two-word model                              *)

let outcome = Alcotest.testable W64.pp_outcome W64.outcome_equal

let divl_machine = lazy (Hppa.Millicode.machine ())

let check_divl ~xhi ~xlo y =
  let mach = Lazy.force divl_machine in
  Machine.reset mach;
  Alcotest.check outcome
    (Printf.sprintf "(%Lx:%Lx) / %Lx" xhi xlo y)
    (W64.reference_divl ~xhi ~xlo y)
    (W64.call mach W64.divl ~signed:false [ xhi; xlo; y ])

let test_divl_directed () =
  List.iter
    (fun (xhi, xlo, y) -> check_divl ~xhi ~xlo y)
    [
      (0L, 100L, 7L);
      (0L, 100L, 0L); (* divide by zero *)
      (5L, 0L, 5L); (* hi >= y: unrepresentable quotient *)
      (4L, 0xdeadbeefL, 5L);
      (1L, 0L, 3L); (* yh = 0, chained 64/32 steps *)
      (0x123456789L, 0x42L, 0x1_0000_0000L);
      (0xffff_fffeL, -1L, 0xffff_ffffL);
      (0x7fffL, -1L, Int64.min_int);
      (0L, -1L, -1L);
      (Int64.lognot Int64.min_int, 0L, -1L);
      (1L, 1L, 2L);
    ]

let prop_divl_matches_reference =
  QCheck.Test.make ~name:"divU128by64 = U128 reference" ~count:500
    (QCheck.triple arb_dword arb_dword arb_dword) (fun (xhi, xlo, y) ->
      (* Fold hi under the divisor half the time so the sweep is not
         dominated by overflow traps. *)
      let xhi =
        if Int64.equal y 0L || Int64.logand xlo 1L = 0L then xhi
        else Int64.unsigned_rem xhi y
      in
      let mach = Lazy.force divl_machine in
      Machine.reset mach;
      W64.outcome_equal
        (W64.reference_divl ~xhi ~xlo y)
        (W64.call mach W64.divl ~signed:false [ xhi; xlo; y ]))

let prop_divl_batch_matches_scalar =
  QCheck.Test.make ~name:"batched divU128by64 = scalar lanes" ~count:60
    (QCheck.list_of_size
       (QCheck.Gen.int_range 1 8)
       (QCheck.triple arb_dword arb_dword arb_dword))
    (fun triples ->
      QCheck.assume (triples <> []);
      let mach = Lazy.force divl_machine in
      let b =
        Machine.Batch.create ~lanes:(List.length triples)
          (Machine.program mach)
      in
      let args =
        Array.of_list
          (List.map
             (fun (xhi, xlo, y) -> W64.operands_divl ~xhi ~xlo y)
             triples)
      in
      Machine.Batch.call b W64.divl_entry ~args;
      List.for_all
        (fun (lane, (xhi, xlo, y)) ->
          W64.outcome_equal
            (W64.reference_divl ~xhi ~xlo y)
            (W64.batch_outcome b ~lane))
        (List.mapi (fun i t -> (i, t)) triples))

(* ------------------------------------------------------------------ *)
(* Certified selection at W64                                          *)

let choice_certified name req =
  match Selector.choose ~require_certified:true req with
  | Error msg -> Alcotest.failf "%s refused under certified: %s" name msg
  | Ok choice ->
      (match choice.Selector.certificate with
      | Some _ -> ()
      | None -> Alcotest.failf "%s chosen without a certificate" name);
      choice

let target_of (choice : Selector.choice) =
  match choice.Selector.emission.Strategy.detail with
  | Strategy.Millicode target -> target
  | _ -> "(inline)"

let test_w64_certified_divides () =
  (* Every W64 constant-divide selection under certified-only serving
     carries a discharging body-equivalence certificate — including the
     128/64 divide. *)
  List.iter
    (fun c ->
      List.iter
        (fun signedness ->
          let dc =
            choice_certified
              (Printf.sprintf "w64_div_const %Ld" c)
              (Strategy.w64_div_const signedness c)
          in
          Alcotest.(check bool)
            (Printf.sprintf "div by %Ld targets millicode" c)
            true
            (target_of dc = "divU64w" || target_of dc = "divI64w");
          ignore
            (choice_certified
               (Printf.sprintf "w64_rem_const %Ld" c)
               (Strategy.w64_rem_const signedness c)))
        [ Strategy.Unsigned; Strategy.Signed ])
    [ 3L; 10L; -7L; 0x1_0000_0001L ];
  let divl = choice_certified "w64_divl" Strategy.w64_divl in
  Alcotest.(check string)
    "divl targets divU128by64" "divU128by64" (target_of divl)

let test_w64_certified_mul_const_prefers_millicode () =
  (* Inline pair chains carry no certificate, so certified-only
     selection falls back to the certified mulI128 call-through; the
     uncertified selector keeps the cheaper chain. *)
  let free = Selector.choose (Strategy.w64_mul_const 625L) in
  (match free with
  | Ok c ->
      Alcotest.(check string)
        "uncertified winner is the chain" "w64_mul_const_chain"
        c.Selector.chosen.Strategy.name
  | Error msg -> Alcotest.failf "uncertified selection failed: %s" msg);
  let cert = choice_certified "w64_mul_const" (Strategy.w64_mul_const 625L) in
  Alcotest.(check string)
    "certified winner calls through" "w64_mul_millicode"
    cert.Selector.chosen.Strategy.name

let suite =
  [
    ( "compiler64:unit",
      [
        Alcotest.test_case "W64 trap cases" `Quick test_w64_trap_cases;
        Alcotest.test_case "W64 register exhaustion message" `Quick
          test_w64_unsupported_names_expression;
        Alcotest.test_case "W64 strength reduction of wide multiplier" `Quick
          test_strength64_removes_wide_multiplier;
        Alcotest.test_case "divU128by64 directed" `Quick test_divl_directed;
        Alcotest.test_case "certified W64 divides carry certificates" `Quick
          test_w64_certified_divides;
        Alcotest.test_case "certified W64 mul falls back to millicode" `Quick
          test_w64_certified_mul_const_prefers_millicode;
      ] );
    qsuite "compiler64:props"
      [
        prop_lowering64 "W64 lowering on the interpreter = eval64"
          ~engine:false;
        prop_lowering64 "W64 lowering on the engine = eval64" ~engine:true;
        prop_lowering64_batch;
        prop_loop64_matches_eval64;
        prop_reduced_loop64_matches_eval64;
        prop_strength64_preserves_semantics;
        prop_divl_matches_reference;
        prop_divl_batch_matches_scalar;
      ];
  ]
