(* Bench harness: regenerates every table and figure of the paper's
   evaluation, printing paper-reported values next to measured ones.

   Usage:
     dune exec bench/main.exe                 -- all figures
     dune exec bench/main.exe fig5 div_perf   -- a selection
     dune exec bench/main.exe --deep          -- adds the ~10-minute
                                                 depth-6 exhaustive search
                                                 certifying Figure 1 row 6
     dune exec bench/main.exe batch           -- SoA batch engine lane
                                                 widths vs the scalar
                                                 engine (exit 1 if none
                                                 beats it)
     dune exec bench/main.exe plans           -- autotune every kernel
                                                 strategy on the simulator,
                                                 gate the selector, write
                                                 BENCH_PLANS.json
     dune exec bench/main.exe w64             -- double-word kernel cycles
                                                 vs per-word millicode
                                                 lower bounds

   All workloads are seeded; output is deterministic (except host times). *)

module Word = Hppa_word.Word
module Machine = Hppa_machine.Machine
module Prng = Hppa_dist.Prng
module Operand_dist = Hppa_dist.Operand_dist
module Obs = Hppa_obs.Obs
open Hppa

let header title =
  Printf.printf "\n==== %s ====\n" title

let mach = lazy (Millicode.machine ())

(* A trap or fuel exhaustion inside a benchmark means a broken routine or
   a broken harness; fail the run loudly rather than folding it into a
   bogus cycle count. *)
let cycles_exn ~what m entry args =
  match Machine.call_cycles m entry ~args with
  | Machine.Halted, c -> c
  | Machine.Trapped t, _ ->
      Printf.eprintf "bench: %s: %s trapped: %s\n%!" what entry
        (Hppa_machine.Trap.to_string t);
      exit 1
  | Machine.Fuel_exhausted, _ ->
      Printf.eprintf "bench: %s: %s exhausted its fuel\n%!" what entry;
      exit 1

let cycles entry args = cycles_exn ~what:"millicode" (Lazy.force mach) entry args

(* ------------------------------------------------------------------ *)
(* Figure 1: least n such that l(n) = r                                *)

let fig1 ~deep () =
  header "Figure 1: least values of n with l(n) = r";
  Printf.printf "paper rows:\n";
  List.iter
    (fun (r, row) -> Printf.printf "  r=%d: %s\n" r row)
    [
      (1, "2,3,4,5,8,9,16,32,64,128,256,512");
      (2, "6,7,10,11,12,13,15,17,18,19,20,21");
      (3, "14,22,23,26,28,29,30,35,38,39,42");
      (4, "58,78,86,92,106,110,114,115,116");
      (5, "466,474,618,622,678,683,686,687");
      (6, "3802,4838,5326,5519,5534,5550");
    ];
  Printf.printf "measured (exhaustive to depth %d):\n%!" (if deep then 6 else 5);
  let max_len, limit = if deep then (6, 5600) else (5, 700) in
  let ex =
    Chain_search.lengths_table ~max_len ~limit
      ~domains:(Hppa_machine.Sweep.default_domains ())
      ()
  in
  for r = 1 to max_len do
    let hits = ref [] and count = ref 0 in
    let n = ref 2 in
    while !count < 12 && !n <= limit do
      (match Chain_search.length_of ex !n with
      | Some l when l = r ->
          hits := !n :: !hits;
          incr count
      | Some _ | None -> ());
      incr n
    done;
    Printf.printf "  r=%d: %s\n" r
      (String.concat "," (List.rev_map string_of_int !hits))
  done;
  (* The paper's closing conjecture: c(r), the first n with l(n) = r,
     grows at least exponentially and perhaps faster. *)
  let firsts =
    List.filter_map
      (fun r -> Chain_stats.first_with_length ex r)
      (List.init (max_len + 1) (fun i -> i + 1))
  in
  Printf.printf "  c(r) growth ratios (conjectured super-exponential): %s\n"
    (String.concat ", "
       (List.map2
          (fun a b -> Printf.sprintf "%.1f" (float_of_int b /. float_of_int a))
          (List.filteri (fun i _ -> i < List.length firsts - 1) firsts)
          (List.tl firsts)));
  if not deep then
    Printf.printf
      "  r=6: (needs the depth-6 closure: run with --deep, ~10 minutes;\n\
      \        the certified run in EXPERIMENTS.md matches the paper exactly:\n\
      \        3802,4838,5326,5519,5534,5550 with first l=6 at 3802)\n"

(* ------------------------------------------------------------------ *)
(* Figures 2-4: the multiply ladder                                    *)

let avg_cycles entry ~n sample =
  let g = Prng.create 0x1234L in
  let tot = ref 0 in
  for _ = 1 to n do
    let x, y = sample g in
    tot := !tot + cycles entry [ x; y ]
  done;
  float_of_int !tot /. float_of_int n

let log_uniform_pair g =
  (Operand_dist.log_uniform g, Operand_dist.log_uniform g)

let fig2 () =
  header "Figure 2: the naive one-bit-per-iteration multiply";
  let worst = cycles "mul_naive" [ 99l; Int32.min_int ] in
  Printf.printf "  worst case:   paper 167, measured %d\n" worst;
  let avg = avg_cycles "mul_naive" ~n:2000 log_uniform_pair in
  Printf.printf "  log-uniform:  measured %.0f (data-independent by design)\n" avg;
  Printf.printf "\nthe simple optimization (early exit on exhausted multiplier):\n";
  let worst = cycles "mul_naive_early" [ 99l; Int32.min_int ] in
  Printf.printf "  worst case:   paper 192, measured %d\n" worst;
  let avg = avg_cycles "mul_naive_early" ~n:2000 log_uniform_pair in
  Printf.printf "  log-uniform:  paper ~103, measured %.0f\n" avg

let fig3 () =
  header "Figure 3: four bits per iteration via shift-and-add";
  let worst = cycles "mul_nibble" [ 99l; Int32.min_int ] in
  Printf.printf "  loop body:    paper 13 instructions, measured %d\n"
    (cycles "mul_nibble" [ 99l; 0xFFl ] - cycles "mul_nibble" [ 99l; 0xFl ]);
  Printf.printf "  worst case:   paper 107, measured %d\n" worst;
  let avg = avg_cycles "mul_nibble" ~n:2000 log_uniform_pair in
  Printf.printf "  log-uniform:  paper ~55, measured %.0f\n" avg

let fig4 () =
  header "Figure 4: the 16-way case-table multiply";
  let worst = cycles "mul_switch" [ 99l; Int32.min_int ] in
  Printf.printf "  worst case:   measured %d\n" worst;
  let avg = avg_cycles "mul_switch" ~n:2000 log_uniform_pair in
  Printf.printf "  log-uniform:  measured %.0f (vs %.0f for Figure 3)\n" avg
    (avg_cycles "mul_nibble" ~n:2000 log_uniform_pair)

(* ------------------------------------------------------------------ *)
(* Figure 5: the final algorithm by operand bucket                     *)

let fig5 () =
  header "Figure 5: final algorithm, cycles by min(|x|,|y|) bucket";
  Printf.printf
    "  %-14s %28s %30s\n" "min(|x|,|y|)" "paper best/avg/worst (%)"
    "measured best/avg/worst (%)";
  let g = Prng.create 0x777L in
  let samples = 20000 in
  let buckets = Array.make 4 [] in
  for _ = 1 to samples do
    let x, y = Operand_dist.figure5_pair g in
    let c = cycles "mul_final" [ x; y ] in
    match Operand_dist.bucket_of_pair x y with
    | Some b ->
        List.iteri
          (fun i b' -> if b == b' then buckets.(i) <- c :: buckets.(i))
          Operand_dist.figure5_buckets
    | None -> ()
  done;
  let paper =
    [ ("0-15", "10 / 15 / 23  (60%)"); ("16-255", "20 / 24 / 34  (20%)");
      ("256-4095", "28 / 34 / 45  (10%)"); ("4096-46340", "36 / 44 / 56  (10%)") ]
  in
  let weighted = ref 0.0 in
  List.iteri
    (fun i (range, paper_row) ->
      let cs = buckets.(i) in
      let n = List.length cs in
      let best = List.fold_left min max_int cs in
      let worst = List.fold_left max 0 cs in
      let avg = float_of_int (List.fold_left ( + ) 0 cs) /. float_of_int (max n 1) in
      let b = List.nth Operand_dist.figure5_buckets i in
      weighted := !weighted +. (b.Operand_dist.weight *. avg);
      Printf.printf "  %-14s %28s %17d / %.0f / %d  (%.0f%%)\n" range paper_row
        best avg worst
        (100.0 *. float_of_int n /. float_of_int samples))
    paper;
  Printf.printf
    "  distribution-weighted average: paper < 20, measured %.1f\n" !weighted;
  Printf.printf "  Booth multiply-step machine (rejected hardware): %d cycles\n"
    (Hppa_baselines.Booth.cycles ())

(* ------------------------------------------------------------------ *)
(* Figure 6: derived constant-division parameters                      *)

let fig6 () =
  header "Figure 6: derived parameters for odd divisors";
  Printf.printf "  (paper values identical — checked exactly by the test suite)\n";
  Printf.printf "  %3s  %5s  %3s  %-10s %-10s\n" "y" "z" "r" "a" "(K+1)y";
  List.iter
    (fun (t : Div_magic.t) ->
      Printf.printf "  %3ld  2^%-3d %3Ld  %-10LX %-10LX\n" t.y t.s t.r t.a
        t.coverage)
    (Div_magic.figure6 ())

(* ------------------------------------------------------------------ *)
(* Figure 7: division by 3                                             *)

let fig7 () =
  header "Figure 7: unsigned division by 3";
  let plan = Div_const.plan_unsigned 3l in
  Format.printf "%a@." Program.pp_source plan.source;
  let m =
    Machine.create
      (Program.resolve_exn (Program.concat [ plan.source; Div_gen.source ]))
  in
  let c = cycles_exn ~what:"fig7 divide-by-3" m plan.entry [ 1_000_000l ] in
  let general = cycles "divU" [ 1_000_000l; 3l ] in
  Printf.printf "  sequence length: paper 17 instructions, measured %d cycles\n" c;
  Printf.printf
    "  vs general divide: paper \"factor of 3.5\", measured %d/%d = %.1fx\n"
    general c
    (float_of_int general /. float_of_int c);
  let plan_s = Div_const.plan_signed 3l in
  let m =
    Machine.create
      (Program.resolve_exn (Program.concat [ plan_s.source; Div_gen.source ]))
  in
  let run x = cycles_exn ~what:"fig7 signed divide-by-3" m plan_s.entry [ x ] in
  Printf.printf
    "  signed: paper 17 cycles positive / 19 negative, measured %d / %d\n"
    (run 1_000_000l) (run (-1_000_000l))

(* ------------------------------------------------------------------ *)
(* Section 7 performance: divisor sweeps                               *)

let div_perf () =
  header "Section 7: division performance by divisor";
  Printf.printf
    "  constant divisors (paper: 1 to 27 cycles for y < 20):\n  %-4s %-22s %-8s %-8s\n"
    "y" "strategy" "cycles" "dispatch";
  let g = Prng.create 0xBEEFL in
  for y = 1 to 19 do
    let y32 = Int32.of_int y in
    let plan = Div_const.plan_unsigned y32 in
    let m =
      Machine.create
        (Program.resolve_exn (Program.concat [ plan.source; Div_gen.source ]))
    in
    let x = Word.of_int (Prng.int_range g 0 0x0fff_ffff) in
    let c = cycles_exn ~what:"div_perf constant divisor" m plan.entry [ x ] in
    let via_dispatch = cycles "divU_small" [ x; y32 ] in
    let strat =
      match plan.strategy with
      | Div_const.Trivial -> "copy"
      | Power_of_two k -> Printf.sprintf "shift >> %d" k
      | Reciprocal (p, ch) ->
          Printf.sprintf "reciprocal z=2^%d c=%d" p.Div_magic.s (Chain.length ch)
      | Even_split (k, _) -> Printf.sprintf "shift %d + reciprocal" k
      | General_fallback -> "general (no 2-word code)"
    in
    Printf.printf "  %-4d %-22s %-8d %-8d\n" y strat c via_dispatch
  done;
  Printf.printf
    "\n  variable divisors via runtime dispatch (paper: 10 to 36 cycles):\n";
  let cmin = ref max_int and cmax = ref 0 and tot = ref 0 in
  let n = 4000 in
  for _ = 1 to n do
    let x = Word.of_int (Prng.int_range g 0 0x3fff_ffff) in
    let y = Operand_dist.small_divisor g in
    let c = cycles "divU_small" [ x; y ] in
    cmin := min !cmin c;
    cmax := max !cmax c;
    tot := !tot + c
  done;
  Printf.printf "  measured %d..%d, average %.1f (y=11 falls back to the general divide)\n"
    !cmin !cmax
    (float_of_int !tot /. float_of_int n);
  Printf.printf "\n  remainder by constant (x - (x/y)*y with an inline chain):\n  ";
  List.iter
    (fun y ->
      let plan = Div_const.plan_rem_unsigned (Int32.of_int y) in
      let m =
        Machine.create
          (Program.resolve_exn (Program.concat [ plan.source; Div_gen.source ]))
      in
      let c = cycles_exn ~what:"div_perf remainder" m plan.entry [ 123456789l ] in
      Printf.printf "mod %d: %d   " y c)
    [ 3; 7; 8; 10; 13 ];
  Printf.printf "(vs %d for the general remU)\n"
    (cycles "remU" [ 123456789l; 7l ]);
  Printf.printf "\n  general-purpose divide (paper: ~80 cycles average):\n";
  Printf.printf "  divU %d cycles, divI %d (positive) / %d (negative operands)\n"
    (cycles "divU" [ 123456789l; 1097l ])
    (cycles "divI" [ 123456789l; 1097l ])
    (cycles "divI" [ -123456789l; 1097l ]);
  Printf.printf "\n  section 2 baselines (modelled single-cycle operations):\n";
  let r = Hppa_baselines.Shift_sub_div.restoring 123456789l 1097l in
  let nr = Hppa_baselines.Shift_sub_div.non_restoring 123456789l 1097l in
  Printf.printf
    "  restoring: %d add/subs, %d cycles; non-restoring: %d add/subs, %d cycles\n"
    r.add_sub_ops r.cycles nr.add_sub_ops nr.cycles

(* ------------------------------------------------------------------ *)
(* Section 5 extras: register use and overflow chains                  *)

let reguse () =
  header "Section 5: constants below 100 needing a temporary register";
  (* A constant needs a temporary iff no minimal chain reads only the
     previous element, the operand and zero: compare the minimal length
     (exhaustive) with the best no-temporary chain. *)
  let ex = Chain_search.lengths_table ~max_len:4 ~limit:100 () in
  let nt = Chain_rules.table No_temp ~limit:100 in
  let needs = ref [] in
  for n = 2 to 99 do
    match (Chain_search.length_of ex n, Chain_rules.cost nt n) with
    | Some l, Some l_nt when l_nt > l -> needs := n :: !needs
    | _, _ -> ()
  done;
  Printf.printf "  paper:    59, 87, 94\n  measured: %s\n"
    (String.concat ", " (List.rev_map string_of_int !needs));
  Printf.printf
    "  (and in-place chains exist exactly for smooth 2^i 3^j 5^k shapes,\n\
    \   e.g. %s)\n"
    (String.concat ", "
       (List.filter_map
          (fun n ->
            match (Chain_search.length_of ex n, Chain_rules.cost nt n) with
            | Some l, Some l_nt when l_nt = l -> Some (string_of_int n)
            | _ -> None)
          [ 10; 15; 30; 60; 90 ]))

let overflow_bench () =
  header "Section 5: the overflow-detection (monotonic chain) penalty";
  let f = Chain_rules.table Fast ~limit:1024 in
  let m = Chain_rules.table Monotonic ~limit:1024 in
  let hist = Hashtbl.create 8 in
  for n = 1 to 1024 do
    match (Chain_rules.cost f n, Chain_rules.cost m n) with
    | Some a, Some b ->
        let d = b - a in
        Hashtbl.replace hist d (1 + Option.value ~default:0 (Hashtbl.find_opt hist d))
    | _ -> ()
  done;
  Printf.printf "  paper example: 31 costs 2 fast, 3 monotonic — measured %d and %d\n"
    (Option.get (Chain_rules.cost f 31))
    (Option.get (Chain_rules.cost m 31));
  Printf.printf "  penalty histogram over n = 1..1024 (steps added for checking):\n";
  List.iter
    (fun d ->
      match Hashtbl.find_opt hist d with
      | Some c -> Printf.printf "    +%d steps: %4d constants\n" d c
      | None -> ())
    [ 0; 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Section 3: operand frequency analysis                               *)

let operands () =
  header "Section 3: operand frequency analysis (synthetic trace)";
  Printf.printf
    "  the paper's bullets vs our trace model (generator parameters from\n\
    \  the studies the paper cites; the analyzer re-derives them):\n\n";
  let g = Prng.create 0x0B5E7L in
  let events = Hppa_dist.Trace.generate g ~n:50000 in
  let s = Hppa_dist.Trace.analyze events in
  Printf.printf "  [Neu79] \"91%% of multiplications include one constant\":  %.1f%%\n"
    s.Hppa_dist.Trace.const_operand_pct;
  Printf.printf "  §6 \"lesser operand < 16 more than half the time\":     %.1f%%\n"
    s.min_operand_lt16_pct;
  Printf.printf "  §6 \"operands nearly always positive\":                 %.1f%%\n"
    s.both_positive_pct;
  Printf.printf "  Figure 5 bucket mix (60/20/10/10):                    %s\n"
    (String.concat " / "
       (List.map (Printf.sprintf "%.1f%%") s.bucket_pcts));
  Printf.printf "  §7 divisors below twenty:                             %.1f%%\n"
    s.small_divisor_pct;
  Format.printf "@.full analyzer output:@.%a@." Hppa_dist.Trace.pp_summary s

(* ------------------------------------------------------------------ *)
(* Section 8 summary numbers                                           *)

let summary () =
  header "Section 8: summary claims";
  (* Constant multiplies: "generally four or fewer" is a claim about the
     constants programs use, which are small. *)
  let t = Chain_rules.table Fast ~limit:10000 in
  let le4 lo hi =
    let c = ref 0 in
    for n = lo to hi do
      match Chain_rules.cost t n with Some l when l <= 4 -> incr c | _ -> ()
    done;
    100.0 *. float_of_int !c /. float_of_int (hi - lo + 1)
  in
  Printf.printf
    "  \"multiplications by constants generally <= 4 instructions\":\n\
    \    1..100: %.0f%%   1..1000: %.1f%%   1..10000: %.1f%%\n"
    (le4 1 100) (le4 1 1000) (le4 1 10000);
  (* Average multiply/divide over the trace model: 91 % constant-operand
     (chain or constant-divide cost), the rest through the millicode. *)
  let averages ~small_divisor_fraction =
    let config =
      { Hppa_dist.Trace.default_config with small_divisor_fraction }
    in
    let g = Prng.create 0xACEL in
    let events = Hppa_dist.Trace.generate ~config g ~n:8000 in
    let mul_tot = ref 0.0 and mul_n = ref 0 in
    let div_tot = ref 0.0 and div_n = ref 0 in
    List.iter
      (fun (e : Hppa_dist.Trace.event) ->
        match e.op with
        | Hppa_dist.Trace.Mul ->
            incr mul_n;
            let c =
              if e.y_is_constant && not (Word.equal e.y Int32.min_int) then
                let mag = Int32.to_int (Word.abs e.y) in
                match Chain_rules.find (max mag 1) with
                | Some chain -> Chain.length chain + if Word.is_neg e.y then 1 else 0
                | None -> cycles "mulI" [ e.x; e.y ]
              else cycles "mulI" [ e.x; e.y ]
            in
            mul_tot := !mul_tot +. float_of_int c
        | Hppa_dist.Trace.Div ->
            incr div_n;
            let c =
              if e.y_is_constant then begin
                let plan = Div_const.plan_signed e.y in
                let m =
                  Machine.create
                    (Program.resolve_exn
                       (Program.concat [ plan.source; Div_gen.source ]))
                in
                match Machine.call_cycles m plan.entry ~args:[ e.x ] with
                | Machine.Halted, c -> c
                | _ -> 0
              end
              else cycles "divI_small" [ e.x; e.y ]
            in
            div_tot := !div_tot +. float_of_int c)
      events;
    ( !mul_tot /. float_of_int !mul_n,
      !div_tot /. float_of_int !div_n )
  in
  let mul_avg, div_avg = averages ~small_divisor_fraction:0.7 in
  Printf.printf
    "  \"the average multiply requires about six cycles\":   measured %.1f\n"
    mul_avg;
  Printf.printf
    "  \"the average divide takes about 40\":                measured %.1f\n"
    div_avg;
  (* The paper does not state its divisor mix; show the sensitivity. *)
  List.iter
    (fun f ->
      let _, d = averages ~small_divisor_fraction:f in
      Printf.printf
        "     (with %.0f%% of divisors below twenty: %.1f)\n" (100.0 *. f) d)
    [ 0.5; 0.3 ];
  (* Program-level impact under instruction mixes. *)
  Printf.printf "\n  program-level CPI (1-cycle base instructions):\n";
  List.iter
    (fun (mix : Hppa_dist.Gibson.mix) ->
      let soft =
        Hppa_dist.Gibson.cpi mix ~mul_cycles:mul_avg ~div_cycles:div_avg
      in
      let naive = Hppa_dist.Gibson.cpi mix ~mul_cycles:168.0 ~div_cycles:108.0 in
      Printf.printf
        "    %-16s naive routines %.3f, this paper's %.3f  (%.1f%% speedup)\n"
        mix.name naive soft
        (100.0 *. ((naive /. soft) -. 1.0)))
    Hppa_dist.Gibson.all

(* ------------------------------------------------------------------ *)
(* Ablation: 1987 floor method vs modern round-up magic                *)

let ablation_magic () =
  header "Ablation: the paper's floor reciprocal vs the round-up method";
  Printf.printf
    "  %-4s %-26s %-30s\n" "y" "paper (floor + b adjust)" "modern (round-up, 1994-style)";
  List.iter
    (fun y ->
      let y32 = Int32.of_int y in
      let paper_desc =
        let t = Div_magic.derive y32 in
        if t.a >= 0x1_0000_0000L then "a needs 33 bits -> fallback"
        else
          match Chain_rules.find (Int64.to_int t.a) with
          | Some c -> Printf.sprintf "z=2^%d chain=%d" t.s (Chain.length c)
          | None -> "no chain"
      in
      let modern = Div_magic_modern.derive y32 in
      let modern_desc =
        if modern.add_fixup then Printf.sprintf "p=%d m=33 bits (fixup +4)" modern.p
        else
          match Div_magic_modern.chain_cost modern with
          | Some c -> Printf.sprintf "p=%d chain=%d" modern.p c
          | None -> Printf.sprintf "p=%d (no word-safe chain)" modern.p
      in
      Printf.printf "  %-4d %-26s %-30s\n" y paper_desc modern_desc)
    [ 3; 5; 7; 9; 11; 13; 15; 17; 19 ];
  Printf.printf
    "  note: the floor method loses y=11 over the full unsigned range\n\
    \  (coverage (K+1)y), the round-up method covers every divisor but\n\
    \  pays a 33-bit multiplier on y=7 and y=19.\n"

(* ------------------------------------------------------------------ *)
(* Booth comparison                                                    *)

let booth () =
  header "The rejected Multiply Step hardware vs the software ladder";
  let g = Prng.create 0xB007L in
  let n = 4000 in
  let avg entry =
    let tot = ref 0 in
    for _ = 1 to n do
      let x, y = Operand_dist.figure5_pair g in
      tot := !tot + cycles entry [ x; y ]
    done;
    float_of_int !tot /. float_of_int n
  in
  Printf.printf "  Booth multiply-step machine:  %d cycles (fixed)\n"
    (Hppa_baselines.Booth.cycles ());
  List.iter
    (fun e -> Printf.printf "  %-28s %.1f cycles (figure-5 operands)\n" (e ^ ":") (avg e))
    [ "mul_naive"; "mul_nibble"; "mul_switch"; "mul_final" ];
  Printf.printf
    "  the paper's claim: the final algorithm \"compares favorably with\n\
    \  Booth's algorithm implemented with a Multiply Step\" at no hardware cost.\n"

(* ------------------------------------------------------------------ *)
(* Pipeline models: ideal vs delay slots, scheduled and not            *)

let delay_bench () =
  header "Delay slots: what HP's millicode scheduling was worth";
  let naive_m =
    Machine.create ~delay_slots:true
      (Program.resolve_exn (Delay.naive Millicode.source))
  in
  let sched_src = Delay.schedule Millicode.source in
  let sched_m =
    Machine.create ~delay_slots:true (Program.resolve_exn sched_src)
  in
  let st = Delay.stats_of sched_src in
  Printf.printf
    "  scheduler filled %d of %d branch slots in the millicode (%.0f%%)\n\n"
    st.Delay.filled st.Delay.branches
    (100.0 *. float_of_int st.Delay.filled /. float_of_int st.Delay.branches);
  Printf.printf "  %-12s %18s %18s %18s\n" "entry" "ideal pipeline"
    "delay, unscheduled" "delay, scheduled";
  let measure m entry args = cycles_exn ~what:"delay pipeline" m entry args in
  List.iter
    (fun (entry, args) ->
      let c0 = cycles entry args in
      let c1 = measure naive_m entry args in
      let c2 = measure sched_m entry args in
      Printf.printf "  %-12s %18d %18d %18d\n" entry c0 c1 c2)
    [
      ("mul_final", [ 123456l; 789l ]);
      ("mul_nibble", [ 123456l; 789l ]);
      ("divU", [ 123456789l; 1097l ]);
      ("divU_small", [ 123456789l; 7l ]);
      ("mulU64", [ 0xDEADBEEFl; 0xCAFEBABEl ]);
    ];
  Printf.printf
    "\n  the paper counts instructions on scheduled code, so its numbers\n\
    \  track the ideal-pipeline column; unscheduled code pays one cycle\n\
    \  per taken branch — the gap the scheduler recovers.\n"

(* ------------------------------------------------------------------ *)
(* Instruction-cache footprint (the section 6 size concern)            *)

let icache_bench () =
  header "Section 6: instruction-cache cost of the multiply routines";
  Printf.printf
    "  (the paper kept case-table entries at two instructions \"to reduce\n\
    \   the algorithm's size (and the instruction cache misses suffered)\")\n\n";
  let m = Lazy.force mach in
  let cache = Hppa_machine.Icache.create ~line_words:8 ~lines:64 () in
  Machine.set_icache m (Some cache);
  let penalty = 10 in
  Printf.printf "  %-16s %14s %14s %22s\n" "routine" "cold misses"
    "warm misses" (Printf.sprintf "cold cycles (+%d/miss)" penalty);
  List.iter
    (fun entry ->
      Hppa_machine.Icache.reset cache;
      let c = cycles entry [ 123456l; 7890l ] in
      let cold = Hppa_machine.Icache.misses cache in
      let h0 = Hppa_machine.Icache.hits cache in
      ignore h0;
      (* Second call: everything resident. *)
      let before = Hppa_machine.Icache.misses cache in
      ignore (cycles entry [ 654321l; 1234l ]);
      let warm = Hppa_machine.Icache.misses cache - before in
      Printf.printf "  %-16s %14d %14d %22d\n" entry cold warm
        (c + (penalty * cold)))
    [ "mul_naive"; "mul_nibble"; "mul_switch"; "mul_final" ];
  Machine.set_icache m None;
  Printf.printf
    "  the case table buys warm-cache speed at a cold-start cost — the\n\
    \  trade the paper navigated by keeping entries two instructions wide.\n"

(* ------------------------------------------------------------------ *)
(* Compiled loop kernels (section 2's motivation, measured)            *)

let kernels () =
  header "Section 2: compiled kernels before/after strength reduction";
  let open Hppa_compiler in
  let run prog entry args =
    let m = Machine.create prog in
    let c = cycles_exn ~what:"compiled kernel" m entry args in
    (Machine.get m Reg.ret0, c)
  in
  let compile ?preheader l inputs =
    Millicode.link
      (Lower_loop.compile ~entry:"k" ~inputs ~result:"j" ?preheader l).source
  in
  let body stmts = List.map (fun (v, e) -> Loop_ir.Assign (v, e)) stmts in
  let trips = 500l in
  let loop stmts =
    Loop_ir.{ counter = "i"; start = 1l; stop = trips; step = 1l; body = body stmts }
  in
  let measure name inputs args l =
    let before = compile l inputs in
    let r = Strength.reduce l in
    let after = compile ~preheader:r.preheader r.loop inputs in
    let v1, c1 = run before "k" args in
    let v2, c2 = run after "k" args in
    assert (Word.equal v1 v2);
    Printf.printf "  %-44s %7d -> %7d cycles (%.2fx)\n" name c1 c2
      (float_of_int c1 /. float_of_int c2);
    (c1, c2)
  in
  (* Address arithmetic: the multiply reduces away. *)
  let addressing =
    loop [ ("j", Expr.Add (Var "j", Expr.Mul (Var "i", Var "stride"))) ]
  in
  let _ = measure "array addressing  j += i*stride" [ "stride" ] [ 12l ] addressing in
  (* Mixed: the same multiply next to a division the optimizer can never
     remove. *)
  let mixed =
    loop
      [
        ("j", Expr.Add (Var "j", Expr.Mul (Var "i", Var "stride")));
        ("j", Expr.Add (Var "j", Expr.Div (Var "n", Var "i")));
      ]
  in
  let c1, c2 = measure "mixed            + j += n/i" [ "stride"; "n" ] [ 12l; 5040l ] mixed in
  (* Estimate the divide share: the divides cost what the mixed kernel
     pays over the addressing kernel after reduction. *)
  let div_only =
    loop [ ("j", Expr.Add (Var "j", Expr.Div (Var "n", Var "i"))) ]
  in
  let _, cdiv = run (compile div_only [ "stride"; "n" ]) "k" [ 12l; 5040l ] in
  let overhead = 4 * Int32.to_int trips in
  let share c = 100.0 *. float_of_int (cdiv - overhead) /. float_of_int c in
  Printf.printf
    "  divide share of the mixed kernel: %.0f%% before, %.0f%% after reduction\n"
    (share c1) (share c2);
  Printf.printf
    "  — \"the percent of the time a program spends doing divisions may\n\
    \     actually increase\" as optimization removes everything else (section 2).\n";
  (* Horner polynomial evaluation: multiplies by a non-invariant value
     stay in the millicode whatever the optimizer does. *)
  let horner =
    loop [ ("j", Expr.Add (Expr.Mul (Var "j", Var "x"), Var "i")) ]
  in
  let _ = measure "Horner           j = j*x + i" [ "x" ] [ 3l ] horner in
  ()

(* ------------------------------------------------------------------ *)
(* BENCH_PLANS.json: the kernel-strategy autotune gate                  *)

module Strategy = Hppa_plan.Strategy
module Autotune = Hppa_plan.Autotune

(* The constant set covers every Div_const strategy shape (trivial,
   shift, reciprocal, even split, general fallback via 625) and chain
   lengths 1..4+, plus the variable requests the millicode serves. *)
let plan_requests ~fast =
  let muls =
    if fast then [ 3l; 15l; 625l ]
    else [ 2l; 3l; 5l; 6l; 10l; 15l; 25l; 31l; 100l; 625l; 1000l ]
  in
  let divs =
    if fast then [ 3l; 7l; 16l ]
    else [ 1l; 3l; 5l; 7l; 9l; 10l; 11l; 13l; 16l; 19l; 625l ]
  in
  List.map (fun c -> Strategy.mul_const c) muls
  @ List.map (fun c -> Strategy.div_const Strategy.Unsigned c) divs
  @ [ Strategy.mul_var (); Strategy.div_var Strategy.Unsigned ]

(* The full double-word family: the variable-operand entries plus the
   128/64 divide (divU128by64). *)
let w64_requests =
  [
    Strategy.w64_mul Strategy.Unsigned; Strategy.w64_mul Strategy.Signed;
    Strategy.w64_div Strategy.Unsigned; Strategy.w64_div Strategy.Signed;
    Strategy.w64_rem Strategy.Unsigned; Strategy.w64_rem Strategy.Signed;
    Strategy.w64_divl;
  ]

(* Measure every candidate for every request; errors count as failures
   in [plans] mode (a request the registry cannot serve is a bug). *)
let tune_reports ~obs ~store ~workload reqs =
  let errors = ref 0 in
  let reports =
    List.filter_map
      (fun req ->
        match Autotune.tune ~store ~obs workload req with
        | Ok r -> Some r
        | Error msg ->
            Printf.eprintf "bench plans: %s: %s\n%!"
              (Strategy.request_id req) msg;
            incr errors;
            None)
      reqs
  in
  (reports, !errors)

(* Per-strategy aggregation over a report set: how often each strategy
   was measured, its average mean cycles, how often it measured best. *)
let strategy_table reports =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (r : Autotune.report) ->
      List.iter
        (fun (name, m) ->
          match m with
          | Ok (m : Autotune.measurement) ->
              let n, tot, wins =
                Option.value ~default:(0, 0.0, 0) (Hashtbl.find_opt tbl name)
              in
              Hashtbl.replace tbl name
                ( n + 1,
                  tot +. m.Autotune.mean_cycles,
                  wins + if r.Autotune.best = name then 1 else 0 )
          | Error _ -> ())
        r.Autotune.measurements)
    reports;
  Hashtbl.fold (fun name (n, tot, wins) acc ->
      (name, n, tot /. float_of_int (max n 1), wins) :: acc)
    tbl []
  |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b)

let print_strategy_table rows =
  Printf.printf "\n  per-strategy comparison:\n";
  Printf.printf "  %-24s %9s %12s %6s\n" "strategy" "measured" "mean cyc"
    "wins";
  List.iter
    (fun (name, n, mean, wins) ->
      Printf.printf "  %-24s %9d %12.1f %6d\n" name n mean wins)
    rows

let bench_plans ~fast ~out () =
  header "Kernel-strategy autotune (lib/plan): selector vs measured cycles";
  let obs = Obs.Registry.create () in
  let store = Autotune.Store.create () in
  let samples = if fast then 32 else 128 in
  let workload = Autotune.Figure5 { samples; seed = 0x5EEDL } in
  let reports, failures = tune_reports ~obs ~store ~workload (plan_requests ~fast) in
  let failures = ref failures in
  (* The W64 family tunes over its own 64-bit operand models: the
     high-word-zero mix plus (slow path) fully-64-bit uniform pairs. *)
  let w64_samples = if fast then 16 else 64 in
  let w64_reports, w64_failures =
    tune_reports ~obs ~store
      ~workload:(Autotune.Hw0 { samples = w64_samples; seed = 0x5EED64L })
      w64_requests
  in
  failures := !failures + w64_failures;
  let u64_reports, u64_failures =
    if fast then ([], 0)
    else
      tune_reports ~obs ~store
        ~workload:(Autotune.Uniform64 { samples = w64_samples; seed = 0x64L })
        [ Strategy.w64_mul Strategy.Unsigned; Strategy.w64_div Strategy.Unsigned ]
  in
  failures := !failures + u64_failures;
  let reports = reports @ w64_reports @ u64_reports in
  Printf.printf "  %-14s %-18s %10s %10s  %s\n" "request" "chosen"
    "mean cyc" "fallback" "gate";
  List.iter
    (fun (r : Autotune.report) ->
      let fb =
        match r.Autotune.fallback with
        | Some f -> Printf.sprintf "%.1f" f.Autotune.mean_cycles
        | None -> "-"
      in
      Printf.printf "  %-14s %-18s %10.1f %10s  %s\n"
        r.Autotune.chosen.Autotune.request
        r.Autotune.chosen.Autotune.strategy
        r.Autotune.chosen.Autotune.mean_cycles fb
        (if r.Autotune.gate_ok then "ok" else "FAIL: slower than millicode");
      if not r.Autotune.gate_ok then incr failures)
    reports;
  print_strategy_table (strategy_table reports);
  (match Autotune.Store.save store out with
  | Ok () -> Printf.printf "\nwrote %s (%d measurements)\n" out
               (Autotune.Store.length store)
  | Error msg ->
      Printf.eprintf "bench plans: cannot write %s: %s\n" out msg;
      incr failures);
  if !failures > 0 then begin
    Printf.eprintf
      "bench plans: %d gate violation(s): the selector chose a plan that \
       measures slower than the millicode fallback\n"
      !failures;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* certify: run the division certifier over every divide strategy      *)

(* Closed-form certification sweep: every selector arbitration below
   runs with [~require_certified:true], so a divisor only passes when
   some emitting strategy carries a machine-checked proof (reciprocal
   coverage bound, power-of-two shift identity, or the divide-step
   schema of the millicode fallback). No dividends are sampled. *)
let bench_certify ~fast () =
  header "division certifier (closed-form, all dividends)";
  let obs = Obs.Registry.create () in
  let limit = if fast then 256 else 4096 in
  let failures = ref 0 in
  let t0 = Unix.gettimeofday () in
  (* Figure 6 first: each paper row's derived plan must certify. *)
  List.iter
    (fun (t : Div_magic.t) ->
      let req = Strategy.div_const Strategy.Unsigned t.Div_magic.y in
      match Hppa_plan.Selector.choose ~obs ~require_certified:true req with
      | Ok _ -> ()
      | Error msg ->
          Printf.eprintf "bench certify: figure6 y=%ld: %s\n%!" t.Div_magic.y
            msg;
          incr failures)
    (Div_magic.figure6 ());
  Printf.printf "  figure6 rows: %d certified\n%!"
    (List.length (Div_magic.figure6 ()) - !failures);
  (* Then the sweep: unsigned and signed divide and remainder for every
     divisor up to the limit (signed also on the negative divisor). *)
  let shapes d =
    [
      Strategy.div_const Strategy.Unsigned d;
      Strategy.div_const Strategy.Signed d;
      Strategy.div_const Strategy.Signed (Int32.neg d);
      Strategy.rem_const Strategy.Unsigned d;
      Strategy.rem_const Strategy.Signed d;
    ]
  in
  for d = 1 to limit do
    List.iter
      (fun req ->
        match
          Hppa_plan.Selector.choose ~obs ~require_certified:true req
        with
        | Ok _ -> ()
        | Error msg ->
            Printf.eprintf "bench certify: %s: %s\n%!"
              (Strategy.request_id req) msg;
            incr failures)
      (shapes (Int32.of_int d))
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let total = (limit * 5) + List.length (Div_magic.figure6 ()) in
  Printf.printf
    "  divisors 1..%d x {divU, divI, divI(-d), remU, remI}: %d plans, %d \
     failure(s) in %.1fs\n"
    limit total !failures dt;
  (* The double-word family: every W64 entry must certify against the
     canonical millicode image (body equivalence). *)
  let w64_ok = ref 0 in
  List.iter
    (fun req ->
      match Hppa_plan.Selector.choose ~obs ~require_certified:true req with
      | Ok _ -> incr w64_ok
      | Error msg ->
          Printf.eprintf "bench certify: %s: %s\n%!"
            (Strategy.request_id req) msg;
          incr failures)
    w64_requests;
  Printf.printf "  w64 family: %d of %d certified\n%!" !w64_ok
    (List.length w64_requests);
  (* The counters the server exports under the same name. *)
  List.iter
    (fun (s : Obs.sample) ->
      if s.Obs.name = "hppa_verify_certified_total" then
        match s.Obs.value with
        | Obs.Counter_v n ->
            Printf.printf "  %s{%s} = %d\n" s.Obs.name
              (String.concat ","
                 (List.map (fun (k, v) -> k ^ "=" ^ v) s.Obs.labels))
              n
        | _ -> ())
    (Obs.Registry.snapshot obs);
  if !failures > 0 then begin
    Printf.eprintf "bench certify: %d uncertified divide plan(s)\n" !failures;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* w64: the double-word kernel family, measured                         *)

(* Per-entry cycle statistics over the high-word-zero operand mix, next
   to a reference scale stated in per-word millicode calls: a 128-bit
   product is four 32x32 [mulU64] partial products, a normalized 64/64
   divide runs the 64/32 [divU64] core at least once, and the 128/64
   divide runs two 64/32 estimate-and-correct steps. The ratio
   column shows what the frame spills, reloads, sign handling and
   normalization glue cost relative to that scale; the multiplies can
   land below 1.0x because the shift-and-add ladder is data-dependent
   and partial products with small high words are cheap. *)
let bench_w64 ~fast () =
  header "64-bit kernel family (lib/w64): measured cycles vs per-word calls";
  let m = Lazy.force mach in
  let n = if fast then 400 else 2000 in
  let block entry args_of =
    let g = Prng.create 0x5EED64L in
    let tot = ref 0 in
    for _ = 1 to n do
      let x, y = Operand_dist.w64_pair g in
      tot := !tot + cycles entry (args_of x y)
    done;
    float_of_int !tot /. float_of_int n
  in
  let mul64_mean =
    block "mulU64" (fun x y -> [ Hppa_w64.lo32 x; Hppa_w64.lo32 y ])
  in
  let div64_mean =
    block "divU64" (fun x y ->
        let d = Hppa_w64.lo32 y in
        let d = if Word.equal d 0l then 1l else d in
        [ 0l; Hppa_w64.lo32 x; d ])
  in
  Printf.printf
    "  building blocks (same stream, low words): mulU64 %.1f cycles, divU64 \
     %.1f cycles\n\n"
    mul64_mean div64_mean;
  Printf.printf "  %-11s %6s %7s %6s %8s %-12s %6s\n" "entry" "min" "mean"
    "max" "ref" "(per-word)" "ratio";
  List.iter
    (fun ((k : Hppa_w64.kernel), signed) ->
      let entry = Hppa_w64.kernel_entry k ~signed in
      let g = Prng.create 0x5EED64L in
      let cmin = ref max_int and cmax = ref 0 and tot = ref 0 in
      for _ = 1 to n do
        let x, y = Operand_dist.w64_pair g in
        (* the 128/64 divide gets the dividend (x mod y : x), whose
           quotient fits a dword *)
        let dwords =
          match k.args with
          | [ _; _ ] -> [ x; y ]
          | _ -> [ Int64.unsigned_rem x y; x; y ]
        in
        match Hppa_w64.call_cycles m k ~signed dwords with
        | Hppa_w64.Value _, c ->
            cmin := min !cmin c;
            cmax := max !cmax c;
            tot := !tot + c
        | Hppa_w64.Trap t, _ ->
            Printf.eprintf "bench w64: %s trapped: %s\n%!" entry
              (Hppa_machine.Trap.to_string t);
            exit 1
        | Hppa_w64.Fuel, _ ->
            Printf.eprintf "bench w64: %s exhausted its fuel\n%!" entry;
            exit 1
      done;
      let mean = float_of_int !tot /. float_of_int n in
      let bound, what =
        if k == Hppa_w64.mul then (4.0 *. mul64_mean, "4 x mulU64")
        else if k == Hppa_w64.divl then (2.0 *. div64_mean, "2 x divU64")
        else (div64_mean, "1 x divU64")
      in
      Printf.printf "  %-11s %6d %7.1f %6d %8.1f %-12s %5.2fx\n" entry !cmin
        mean !cmax bound what (mean /. bound))
    Hppa_w64.runs

(* ------------------------------------------------------------------ *)
(* batch: the SoA batch engine's lane-width sweep (CI gate)            *)

(* Simulated instructions per host second of [run], which returns the
   cycles it simulated. *)
let insns_per_sec run =
  let t0 = Unix.gettimeofday () in
  let cyc = run () in
  float_of_int cyc /. (Unix.gettimeofday () -. t0)

(* One millicode entry over [iters] operand sets on the batched SoA
   engine, fed [width] call-sites at a time; a lane that does not halt
   fails the run. *)
let batch_throughput ~iters ~width entry args_of =
  let b = Machine.Batch.create ~lanes:width (Millicode.resolved ()) in
  let die fmt =
    Printf.eprintf "bench batch: %s: " entry;
    Printf.kfprintf (fun oc -> output_char oc '\n'; exit 1) stderr fmt
  in
  (* Warm-up batch: translation cost stays out of the timing. *)
  Machine.Batch.call b entry ~args:(Array.init width (fun _ -> args_of 0));
  insns_per_sec (fun () ->
      let cyc = ref 0 in
      let i = ref 1 in
      while !i <= iters do
        let k = min width (iters - !i + 1) in
        let base = !i in
        Machine.Batch.call b entry
          ~args:(Array.init k (fun j -> args_of (base + j)));
        for l = 0 to k - 1 do
          (match Machine.Batch.outcome b ~lane:l with
          | Machine.Halted -> ()
          | Machine.Trapped t ->
              die "lane %d trapped: %s" l (Hppa_machine.Trap.to_string t)
          | Machine.Fuel_exhausted -> die "lane %d exhausted its fuel" l);
          cyc := !cyc + Machine.Batch.cycles b ~lane:l
        done;
        i := !i + k
      done;
      !cyc)

(* Each kernel on the scalar threaded engine, then at every lane width;
   exits 1 unless the best width beats the scalar engine on the two
   kernels the paper's throughput story rests on. *)
let bench_batch ~fast () =
  header "Batch engine: lane widths vs the scalar threaded engine";
  let iters = if fast then 4000 else 20000 in
  let failed = ref false in
  List.iter
    (fun (name, args_of) ->
      let m = Millicode.machine () in
      (* The first call translates; keep it out of the timing. *)
      ignore (cycles_exn ~what:"batch warmup" m name (args_of 0));
      let scalar =
        insns_per_sec (fun () ->
            let cyc = ref 0 in
            for i = 1 to iters do
              cyc := !cyc + cycles_exn ~what:"batch scalar" m name (args_of i)
            done;
            !cyc)
      in
      let widths =
        List.map
          (fun w -> (w, batch_throughput ~iters ~width:w name args_of))
          [ 1; 4; 16; 64; 256 ]
      in
      let best_w, best =
        List.fold_left
          (fun (bw, b) (w, ips) -> if ips > b then (w, ips) else (bw, b))
          (0, 0.0) widths
      in
      Printf.printf "  %-10s scalar %.1fM insns/s, batch:" name (scalar /. 1e6);
      List.iter (fun (w, ips) -> Printf.printf " w%d %.1fM" w (ips /. 1e6)) widths;
      Printf.printf "  best w%d = %.2fx scalar\n" best_w (best /. scalar);
      if (name = "mul_naive" || name = "divU") && best <= scalar then begin
        Printf.eprintf
          "bench batch: %s best width w%d (%.1fM insns/s) does not beat the \
           scalar engine (%.1fM)\n"
          name best_w (best /. 1e6) (scalar /. 1e6);
        failed := true
      end)
    [
      ("mul_final", fun i -> [ Int32.of_int ((i land 0xffff) + 1); 12345l ]);
      ("mul_naive", fun i -> [ Int32.of_int ((i land 0xffff) + 1); 0x12345l ]);
      ("divU", fun i -> [ Int32.of_int ((i * 7919) land 0x3fff_ffff); 1097l ]);
    ];
  if !failed then exit 1

(* ------------------------------------------------------------------ *)

let all_figures =
  [
    ("fig1", fun ~deep () -> fig1 ~deep ());
    ("fig2", fun ~deep:_ () -> fig2 ());
    ("fig3", fun ~deep:_ () -> fig3 ());
    ("fig4", fun ~deep:_ () -> fig4 ());
    ("fig5", fun ~deep:_ () -> fig5 ());
    ("fig6", fun ~deep:_ () -> fig6 ());
    ("operands", fun ~deep:_ () -> operands ());
    ("fig7", fun ~deep:_ () -> fig7 ());
    ("div_perf", fun ~deep:_ () -> div_perf ());
    ("reguse", fun ~deep:_ () -> reguse ());
    ("overflow", fun ~deep:_ () -> overflow_bench ());
    ("summary", fun ~deep:_ () -> summary ());
    ("kernels", fun ~deep:_ () -> kernels ());
    ("icache", fun ~deep:_ () -> icache_bench ());
    ("delay", fun ~deep:_ () -> delay_bench ());
    ("ablation_magic", fun ~deep:_ () -> ablation_magic ());
    ("booth", fun ~deep:_ () -> booth ());
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* `plans --out PATH` redirects the artifact (so CI can write outside
     the checkout); everything else is a figure selection. *)
  let out, args =
    let rec go acc = function
      | "--out" :: path :: rest -> (Some path, List.rev_append acc rest)
      | a :: rest -> go (a :: acc) rest
      | [] -> (None, List.rev acc)
    in
    go [] args
  in
  let deep = List.mem "--deep" args in
  let fast = List.mem "--fast" args in
  let selected =
    List.filter (fun a -> a <> "--deep" && a <> "--fast") args
  in
  if List.mem "batch" selected then bench_batch ~fast ()
  else if List.mem "plans" selected then
    bench_plans ~fast ~out:(Option.value out ~default:"BENCH_PLANS.json") ()
  else if List.mem "certify" selected then bench_certify ~fast ()
  else if List.mem "w64" selected then bench_w64 ~fast ()
  else begin
    let to_run =
      if selected = [] then all_figures
      else
        List.filter (fun (name, _) -> List.mem name selected) all_figures
    in
    if to_run = [] then begin
      Printf.printf "unknown selection; available: %s batch plans certify w64\n"
        (String.concat " " (List.map fst all_figures));
      exit 2
    end;
    Printf.printf
      "Integer Multiplication and Division on the HP Precision Architecture\n\
       (ASPLOS 1987) — reproduction harness. Paper values vs this simulator.\n";
    List.iter (fun (_, f) -> f ~deep ()) to_run
  end
