(* Calendar arithmetic: a division-heavy workload (section 7).

   Breaking a Unix-style timestamp into days / hours / minutes / seconds
   and a day-of-week is nothing but divisions by the small constants 60,
   60, 24 and 7 — exactly the workload the derived method targets. This
   example decomposes timestamps three ways and counts simulated cycles:

     1. the general-purpose DS millicode divide (~76 cycles each),
     2. the small-divisor runtime dispatch (divisor known only at run time),
     3. constant-divisor routines from the derived method.

   Run with:  dune exec examples/calendar_division.exe *)

module Word = Hppa_word.Word
module Machine = Hppa_machine.Machine

(* divmod through any divide entry that leaves the quotient in ret0; the
   remainder is recovered as x - q*y on the host to keep the comparison
   about division cost only. *)
let div_via mach entry x y =
  match Machine.call_cycles mach entry ~args:[ x; y ] with
  | Machine.Halted, cycles ->
      let q = Machine.get mach Reg.ret0 in
      (q, Word.sub x (Word.mul_lo q y), cycles)
  | (Machine.Trapped _ | Machine.Fuel_exhausted), _ -> (0l, 0l, -1)

let div_const mach entry x y =
  match Machine.call_cycles mach entry ~args:[ x ] with
  | Machine.Halted, cycles ->
      let q = Machine.get mach Reg.ret0 in
      (q, Word.sub x (Word.mul_lo q y), cycles)
  | (Machine.Trapped _ | Machine.Fuel_exhausted), _ -> (0l, 0l, -1)

let () =
  (* One image holding the millicode plus the constant-divisor routines
     this workload needs. *)
  (* Divisors below 20 (here: 7) already have routines inside the
     millicode's small-divisor table; only the larger ones need plans. *)
  let plans = List.map (fun y -> Hppa.Div_const.plan_unsigned (Int32.of_int y)) [ 60; 24 ] in
  let prog =
    Hppa.Millicode.link
      (Program.concat (List.map (fun (p : Hppa.Div_const.plan) -> p.source) plans))
  in
  let mach = Machine.create prog in

  let decompose name div =
    let total = ref 0 in
    let stamp = 1_234_567_890l in
    let minutes, sec, c1 = div stamp 60l in
    total := !total + c1;
    let hours, min_, c2 = div minutes 60l in
    total := !total + c2;
    let days, hour, c3 = div hours 24l in
    total := !total + c3;
    let _weeks, dow, c4 = div days 7l in
    total := !total + c4;
    Format.printf
      "%-24s %ld days, %02ld:%02ld:%02ld, day-of-week %ld   (%d cycles for 4 divides)@."
      name days hour min_ sec dow !total
  in

  Format.printf "timestamp 1234567890 decomposed three ways:@.@.";
  decompose "general divU:" (fun x y -> div_via mach "divU" x y);
  decompose "runtime dispatch:" (fun x y -> div_via mach "divU_small" x y);
  decompose "derived method:" (fun x y ->
      div_const mach (Printf.sprintf "divu_c%ld" y) x y);

  (* Aggregate over a year of hourly timestamps. *)
  Format.printf "@.8760 hourly timestamps (one year), total divide cycles:@.";
  List.iter
    (fun (name, div) ->
      let total = ref 0 in
      for h = 0 to 8759 do
        let stamp = Int32.add 1_200_000_000l (Int32.mul 3600l (Int32.of_int h)) in
        let _, _, c1 = div stamp 60l in
        let _, _, c2 = div stamp 24l in
        total := !total + c1 + c2
      done;
      Format.printf "  %-20s %d@." name !total)
    [
      ("general divU", fun x y -> div_via mach "divU" x y);
      ("runtime dispatch", fun x y -> div_via mach "divU_small" x y);
      ( "derived method",
        fun x y -> div_const mach (Printf.sprintf "divu_c%ld" y) x y );
    ]
