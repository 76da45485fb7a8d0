(* 64-bit array addressing: the section 2 motivation at double width.

     a = base + (i * COLS + j) * SIZE;

   where [base] is a 64-bit address and the element stride can exceed a
   word. Compiled at Expr.W64 every value lives in a register pair,
   constant multiplies become carry-propagating shift-and-add chains
   over dwords, and the strength-reduction pass rewrites the counter
   multiply into a running pair addition — exactly the W32 story, one
   width up.

   Run with:  dune exec examples/w64_array_addressing.exe *)

module Machine = Hppa_machine.Machine
open Hppa_compiler

let cols = 20L (* columns per row *)
let size = 24L (* sizeof(element) *)
let base = 0x2_0000_0040L (* array base: needs more than 32 bits *)

(* Read the dword result convention: high half in ret0, low in ret1. *)
let result_pair mach =
  Int64.logor
    (Int64.shift_left (Int64.of_int32 (Machine.get mach Reg.ret0)) 32)
    (Int64.logand (Int64.of_int32 (Machine.get mach Reg.ret1)) 0xFFFFFFFFL)

let pair x = [ Hppa_w64.hi32 x; Hppa_w64.lo32 x ]

let () =
  Format.printf "64-bit strides: %Ld columns x %Ld bytes, base 0x%Lx@.@." cols
    size base;

  (* The address expression, lowered at W64. Both multiplies are by
     constants, so they stay inline as pair chains. *)
  let addr =
    Expr.Add
      ( Var "base",
        Mul (Add (Mul (Var "i", Const64 cols), Const 3l), Const64 size) )
  in
  let unit_ =
    Lower.compile ~width:Expr.W64 ~entry:"addr64" ~params:[ "base"; "i" ] addr
  in
  Format.printf
    "addr64: %d inline pair-chain multiplies, %d millicode calls@."
    unit_.inline_multiplies unit_.millicode_calls;
  let prog = Hppa.Millicode.link unit_.source in
  let mach = Machine.create prog in
  let i = 123_456_789L in
  (match
     Machine.call_cycles mach "addr64" ~args:(pair base @ pair i)
   with
  | Machine.Halted, cycles ->
      let got = result_pair mach in
      let env = function "base" -> base | _ -> i in
      let want = Expr.eval64 ~env addr in
      Format.printf "addr64(base, %Ld) = 0x%Lx (%d cycles)%s@.@." i got cycles
        (if Int64.equal got want then "" else "  MISMATCH")
  | (Machine.Trapped _ | Machine.Fuel_exhausted), _ ->
      Format.printf "addr64 failed@.@.");

  (* Strength reduction at W64: the counter multiply by a row stride
     that does not even fit a word (each row spans a little over 4 GiB)
     has no inline chain — unreduced, every iteration calls the mulI128
     millicode. The pass rewrites it into a pair addition. *)
  let stride = 0x1_0000_0018L in
  let loop =
    Loop_ir.
      {
        counter = "i";
        start = 0l;
        stop = 1000l;
        step = 1l;
        body =
          [
            Assign
              ("a", Expr.Add (Var "a", Expr.Mul (Var "i", Const64 stride)));
          ];
      }
  in
  Format.printf "row-offset loop:@.%a@.@." Loop_ir.pp loop;
  let reduced = Strength.reduce ~width:Expr.W64 loop in
  Format.printf "after W64 strength reduction (%d multiply removed):@.%a@.@."
    reduced.multiplies_removed Loop_ir.pp reduced.loop;
  let before = Loop_ir.eval64 loop ~init:[ ("a", 0L) ] in
  let after = Strength.eval_reduced64 reduced ~init:[ ("a", 0L) ] in
  Format.printf "a = %Ld before, %Ld after (%s)@.@." (List.assoc "a" before)
    (List.assoc "a" after)
    (if Int64.equal (List.assoc "a" before) (List.assoc "a" after) then
       "semantics preserved"
     else "BUG");

  (* Both versions compiled at W64 and raced on the simulator. *)
  let run l entry compile =
    let prog = compile l in
    let mach = Machine.create prog in
    match Machine.call_cycles mach entry ~args:[] with
    | Machine.Halted, c -> (result_pair mach, c)
    | (Machine.Trapped _ | Machine.Fuel_exhausted), _ -> failwith entry
  in
  let v1, c1 =
    run loop "k" (fun l ->
        Lower_loop.compile_and_link ~width:Expr.W64 ~entry:"k" ~inputs:[]
          ~result:"a" l)
  in
  let v2, c2 =
    run reduced "k" (fun r ->
        let u =
          Lower_loop.compile_reduced ~width:Expr.W64 ~entry:"k" ~inputs:[]
            ~result:"a" r
        in
        Hppa.Millicode.link u.source)
  in
  assert (Int64.equal v1 v2);
  Format.printf
    "1000 iterations on the simulator: %6d -> %6d cycles (%.2fx)@." c1 c2
    (float_of_int c1 /. float_of_int c2)
