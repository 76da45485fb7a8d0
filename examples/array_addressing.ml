(* Array addressing: the paper's opening motivation (section 2).

     a = structureA[x][y].b;

   on a machine without multiply hardware requires two multiplications:
   x * y * sizeof(structureA)  -- really  (x * COLS + y) * SIZE  -- and
   FORTRAN-style code where the ranks are runtime parameters cannot even
   constant-fold them. This example compiles both shapes with the
   mini-compiler and shows where the multiplies went: constant strides
   become inline shift-and-add chains, runtime strides become millicode
   calls.

   Run with:  dune exec examples/array_addressing.exe *)

module Word = Hppa_word.Word
module Machine = Hppa_machine.Machine
open Hppa_compiler

let cols = 17l (* columns of structureA *)
let size = 12l (* sizeof(structureA[0][0]) *)

let run_expr name prog entry args env expr =
  let mach = Machine.create prog in
  match Machine.call_cycles mach entry ~args with
  | Machine.Halted, cycles ->
      let got = Machine.get mach Reg.ret0 in
      let want = Expr.eval ~env expr in
      Format.printf "%-28s = %-10ld (%3d cycles)%s@." name got cycles
        (if Word.equal got want then "" else "  MISMATCH")
  | (Machine.Trapped _ | Machine.Fuel_exhausted), _ ->
      Format.printf "%-28s failed@." name

let () =
  Format.printf "strides: %ld columns x %ld bytes per element@.@." cols size;

  (* C shape: both strides are compile-time constants. *)
  let addr_const =
    Expr.Mul (Add (Mul (Var "x", Const cols), Var "y"), Const size)
  in
  let unit_ = Lower.compile ~entry:"addr_const" ~params:[ "x"; "y" ] addr_const in
  Format.printf
    "constant strides: %d inline chain multiplies, %d millicode calls@."
    unit_.inline_multiplies unit_.millicode_calls;
  let prog = Hppa.Millicode.link unit_.source in
  let env v = if v = "x" then 41l else 29l in
  run_expr "addr_const(41, 29)" prog "addr_const" [ 41l; 29l ] env addr_const;

  (* FORTRAN shape: the rank arrives as a parameter, so the inner multiply
     must go through the millicode. *)
  let addr_var =
    Expr.Mul (Add (Mul (Var "x", Var "cols"), Var "y"), Const size)
  in
  let unit_ = Lower.compile ~entry:"addr_var" ~params:[ "x"; "y"; "cols" ] addr_var in
  Format.printf
    "@.runtime rank:     %d inline chain multiplies, %d millicode calls@."
    unit_.inline_multiplies unit_.millicode_calls;
  let prog = Hppa.Millicode.link unit_.source in
  let env v = match v with "x" -> 41l | "y" -> 29l | _ -> cols in
  run_expr "addr_var(41, 29, 17)" prog "addr_var" [ 41l; 29l; cols ] env addr_var;

  (* The pointer-difference division of section 2:
       diff = &structureB[x] - &structureB[y]   (in elements). *)
  Format.printf "@.pointer difference (division by sizeof = %ld):@." size;
  let diff =
    Expr.Div (Sub (Mul (Var "px", Const size), Mul (Var "py", Const size)), Const size)
  in
  let unit_ = Lower.compile ~entry:"ptr_diff" ~params:[ "px"; "py" ] diff in
  let prog = Hppa.Millicode.link unit_.source in
  let env v = if v = "px" then 1000l else 977l in
  run_expr "ptr_diff(1000, 977)" prog "ptr_diff" [ 1000l; 977l ] env diff
