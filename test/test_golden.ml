(* Golden W32 lowering output, captured from the pre-width-refactor
   compiler. The width-polymorphic refactor must keep W32 lowering
   byte-identical: these strings are the pinned disassembly of
   representative [Lower.compile] / [Lower_loop.compile_reduced]
   outputs, and the tests below re-render the same programs and demand
   exact equality. Do not regenerate these from current output to make
   a failure go away -- a mismatch means W32 code generation changed. *)

open Hppa_compiler

let render (src : Program.source) =
  Format.asprintf "%a" Program.pp_source src ^ "\n"

let expected_e1 =
  "f:\n        ldo 0(r26), r3\n        ldo 0(r25), r4\n        zdep r3, 5, 27, r7\n        sub r7, r3, r7\n        sh2add r7, r3, r7\n        sh2add r7, r7, r7\n        ldo 0(r4), r26\n        bl divi_c7, r31\n        ldo 0(r28), r8\n        add r7, r8, r8\n        ldo 0(r8), r28\n        bv r0(r2)\n"

let expected_e2 =
  "g:\n        ldo 0(r26), r3\n        ldo 0(r25), r4\n        ldo 0(r3), r26\n        bl remi_c10, r31\n        ldo 0(r28), r7\n        ldo 0(r3), r26\n        ldo 0(r4), r25\n        bl mulI, r31\n        ldo 0(r28), r8\n        sub r7, r8, r8\n        ldo 0(r8), r28\n        bv r0(r2)\nremi_c10:\n        ldo 0(r26), r1\n        comclr,>= r26, r0, r0\n        sub r0, r26, r26\n        extru r26, 1, 31, r26\n        addi 1, r26, r20\n        addc r0, r0, r19\n        shd r19, r20, 17, r21\n        zdep r20, 15, 17, r22\n        shd r21, r22, 31, r29\n        sh1add r22, r20, r28\n        addc r29, r19, r29\n        shd r29, r28, 24, r19\n        zdep r28, 8, 24, r20\n        add r20, r28, r20\n        addc r19, r29, r19\n        shd r19, r20, 28, r21\n        zdep r20, 4, 28, r22\n        add r22, r20, r20\n        addc r21, r19, r19\n        shd r19, r20, 31, r21\n        sh1add r20, r20, r22\n        addc r21, r19, r21\n        ldo 0(r21), r28\n        zdep r28, 1, 31, r29\n        sh3add r28, r29, r29\n        ldo 0(r1), r19\n        comclr,>= r1, r0, r0\n        sub r0, r19, r19\n        sub r19, r29, r28\n        comclr,>= r1, r0, r0\n        sub r0, r28, r28\n        bv r0(r31)\n"

let expected_e3 =
  "h:\n        ldo 0(r26), r3\n        ldo 0(r25), r4\n        ldo 0(r3), r26\n        ldo 0(r4), r25\n        bl divI_small, r31\n        ldo 0(r28), r7\n        ldo 0(r7), r28\n        bv r0(r2)\n"

let expected_e4 =
  "o:\n        ldo 0(r26), r3\n        sh1add,o r3, r3, r7\n        sh2add,o r7, r7, r7\n        ldo 0(r7), r28\n        bv r0(r2)\n"

let expected_loop =
  "k:\n        ldo 0(r0), r3\n        ldo 0(r0), r4\n        ldo 0(r0), r5\n        ldo 0(r0), r7\n        ldo 0(r7), r4\n        ldo 0(r0), r3\n        ldo 10(r0), r6\nk$top:\n        comb,>= r3, r6, k$exit\n        add r5, r4, r7\n        ldo 0(r7), r5\n        ldo 15(r0), r7\n        add r4, r7, r7\n        ldo 0(r7), r4\n        addi 1, r3, r3\n        b k$top\nk$exit:\n        ldo 0(r5), r28\n        bv r0(r2)\n"

let check name expected actual () =
  Alcotest.(check string) name expected (render actual)

(* The pinned programs, compiled afresh. *)
let e1 () =
  let e = Expr.Add (Mul (Var "x", Const 625l), Div (Var "y", Const 7l)) in
  (Lower.compile ~entry:"f" ~params:[ "x"; "y" ] e).Lower.source

let e2 () =
  let e = Expr.Sub (Rem (Var "x", Const 10l), Mul (Var "x", Var "y")) in
  (Lower.compile ~entry:"g" ~params:[ "x"; "y" ] e).Lower.source

let e3 () =
  let e = Expr.Div (Var "x", Var "y") in
  (Lower.compile ~entry:"h" ~small_divisor_dispatch:true ~params:[ "x"; "y" ]
     e)
    .Lower.source

let e4 () =
  let e = Expr.Mul (Var "x", Const 15l) in
  (Lower.compile ~entry:"o" ~trap_overflow:true ~params:[ "x" ] e).Lower.source

let loop () =
  let l =
    Loop_ir.
      {
        counter = "i";
        start = 0l;
        stop = 10l;
        step = 1l;
        body =
          [ Assign ("j", Expr.Add (Var "j", Expr.Mul (Var "i", Const 15l))) ];
      }
  in
  let r = Strength.reduce l in
  (Lower_loop.compile_reduced ~entry:"k" ~inputs:[] ~result:"j" r)
    .Lower_loop.source

let lowerings () =
  [ ("e1", e1 ()); ("e2", e2 ()); ("e3", e3 ()); ("e4", e4 ()); ("loop", loop ()) ]

let case_e1 () = check "mul chain + signed divide" expected_e1 (e1 ()) ()
let case_e2 () = check "rem plan + variable multiply" expected_e2 (e2 ()) ()
let case_e3 () = check "small-divisor dispatch divide" expected_e3 (e3 ()) ()
let case_e4 () = check "trap-overflow mul chain" expected_e4 (e4 ()) ()
let case_loop () = check "strength-reduced loop" expected_loop (loop ()) ()

let suite =
  [
    ( "compiler:golden-w32",
      [
        Alcotest.test_case "e1 chain+div" `Quick case_e1;
        Alcotest.test_case "e2 rem+mulI" `Quick case_e2;
        Alcotest.test_case "e3 dispatch" `Quick case_e3;
        Alcotest.test_case "e4 overflow chain" `Quick case_e4;
        Alcotest.test_case "loop reduced" `Quick case_loop;
      ] );
  ]
