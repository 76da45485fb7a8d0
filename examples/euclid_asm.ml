(* Hand-written Precision assembly, assembled and run on the simulator.

   Euclid's algorithm with the remainder computed by the millicode divide:
   the classic case of a program that is "all division" — gcd of two ~2^31
   numbers performs ~30 remainders, so the ~76-cycle DS millicode
   dominates its run time, the situation section 7 set out to improve.

   Run with:  dune exec examples/euclid_asm.exe *)

module Word = Hppa_word.Word
module Machine = Hppa_machine.Machine

let gcd_source =
  Asm.parse_exn
    {|
; gcd(arg0, arg1) -> ret0, using the remU millicode.
; r3 holds a, r4 holds b across the calls (millicode preserves r3..r18).
gcd:    copy   arg0, r3
        copy   arg1, r4
loop:   comib,= 0, r4, done      ; while b <> 0
        copy   r3, arg0
        copy   r4, arg1
        bl     remU, mrp         ;   r = a mod b
        copy   r4, r3            ;   a = b
        copy   ret0, r4          ;   b = r
        b      loop
done:   copy   r3, ret0
        bv     r0(rp)
|}

let () =
  let prog = Hppa.Millicode.link gcd_source in
  let mach = Machine.create prog in
  let gcd a b =
    match Machine.call_cycles mach "gcd" ~args:[ a; b ] with
    | Machine.Halted, c -> (Machine.get mach Reg.ret0, c)
    | (Machine.Trapped _ | Machine.Fuel_exhausted), _ -> failwith "gcd"
  in
  Format.printf "Euclid on the simulator (remainders via DS millicode):@.@.";
  List.iter
    (fun (a, b) ->
      let g, c = gcd a b in
      Format.printf "  gcd(%ld, %ld) = %ld   (%d cycles)@." a b g c)
    [
      (48l, 36l); (1071l, 462l); (1234567890l, 987654321l);
      (2147483647l, 2l); (1836311903l, 1134903170l) (* consecutive Fibonacci *);
    ];
  (* The Fibonacci pair is Euclid's worst case: one subtraction of
     quotient 1 per step, so the divide cost dominates everything. *)
  let _, c = gcd 1836311903l 1134903170l in
  Format.printf
    "@.the Fibonacci pair needs ~43 remainders: %d cycles, ~%d per remainder@."
    c (c / 43)
