(* Strength reduction: the paper's section 2 loop, end to end.

     for (i = 0; i < 10; i = i + 1)
         j = j + i*15;

   The multiplication by 15 forms an arithmetic progression, so the
   optimizer replaces it with an addition — and when the pass cannot fire
   (the paper: induction variables reused in non-subscript expressions,
   global counters, careless gotos), the multiply stays and its cost is
   whatever the architecture makes of it. This example runs the pass,
   checks semantics, and weighs the surviving multiplies with the
   simulated millicode costs.

   Run with:  dune exec examples/strength_reduction.exe *)

module Word = Hppa_word.Word
module Machine = Hppa_machine.Machine
open Hppa_compiler

let () =
  let loop =
    Loop_ir.
      {
        counter = "i";
        start = 0l;
        stop = 10l;
        step = 1l;
        body = [ Assign ("j", Expr.Add (Var "j", Expr.Mul (Var "i", Const 15l))) ];
      }
  in
  Format.printf "original loop:@.%a@.@." Loop_ir.pp loop;

  let reduced = Strength.reduce loop in
  Format.printf "after strength reduction (%d multiply removed):@.%a@.@."
    reduced.multiplies_removed Loop_ir.pp reduced.loop;

  let before = Loop_ir.eval loop ~init:[ ("j", 0l) ] in
  let after = Strength.eval_reduced reduced ~init:[ ("j", 0l) ] in
  Format.printf "j = %ld before, %ld after (%s)@.@."
    (List.assoc "j" before) (List.assoc "j" after)
    (if List.assoc "j" before = List.assoc "j" after then "semantics preserved"
     else "BUG");

  (* The FORTRAN rank situation: the induction variable multiplies a
     runtime value. The extended pass reduces it too (the bump becomes an
     addition of n), leaving nothing for the millicode. *)
  let stubborn =
    Loop_ir.
      {
        counter = "i";
        start = 0l;
        stop = 1000l;
        step = 1l;
        body =
          [
            Assign ("j", Expr.Add (Var "j", Expr.Mul (Var "i", Const 15l)));
            Assign ("k", Expr.Add (Var "k", Expr.Mul (Var "i", Var "n")));
          ];
      }
  in
  let reduced = Strength.reduce stubborn in
  let dyn_before, _ = Loop_ir.dynamic_mul_div stubborn in
  let dyn_after, _ = Loop_ir.dynamic_mul_div reduced.loop in
  Format.printf
    "rank loop: %d dynamic multiplies before, %d survive reduction@."
    dyn_before dyn_after;
  Format.printf
    "(when the multiplier is NOT invariant — a global the loop updates, a@.";
  Format.printf
    " careless goto — the pass cannot fire and the millicode cost stays.)@.";

  (* Compile both versions of the whole loop and run them end to end. *)
  let measure name inputs args l =
    let before = Lower_loop.compile_and_link ~entry:"k" ~inputs ~result:"j" l in
    let reduced = Strength.reduce l in
    let after_u = Lower_loop.compile_reduced ~entry:"k" ~inputs ~result:"j" reduced in
    let after = Hppa.Millicode.link after_u.source in
    let run prog =
      let mach = Machine.create prog in
      match Machine.call_cycles mach "k" ~args with
      | Machine.Halted, c -> (Machine.get mach Reg.ret0, c)
      | (Machine.Trapped _ | Machine.Fuel_exhausted), _ -> failwith "kernel"
    in
    let v1, c1 = run before and v2, c2 = run after in
    assert (Word.equal v1 v2);
    Format.printf "  %-34s %6d -> %6d cycles (%.2fx)@." name c1 c2
      (float_of_int c1 /. float_of_int c2)
  in
  Format.printf "@.whole loops compiled and run on the simulator (1000 iterations):@.";
  let body e = [ Loop_ir.Assign ("j", Expr.Add (Var "j", e)) ] in
  let loop e =
    Loop_ir.{ counter = "i"; start = 0l; stop = 1000l; step = 1l; body = body e }
  in
  measure "j += i * n   (variable, millicode)" [ "n" ] [ 15l ]
    (loop (Expr.Mul (Var "i", Var "n")));
  measure "j += i * 15  (constant, chain)" [] []
    (loop (Expr.Mul (Var "i", Const 15l)));
  Format.printf
    "@.the architectural punchline: reduction rescues the variable case, but@.";
  Format.printf
    "a constant multiplier was already a two-instruction chain — section 5@.";
  Format.printf "made that strength reduction nearly redundant.@."
