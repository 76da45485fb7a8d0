(* compile: a seeded corpus of Expr and Loop_ir programs compiled, linked
   with the millicode and run on sampled inputs, in-process. *)

open Hppa_compiler
module Machine = Hppa_machine.Machine
module Strategy = Hppa_plan.Strategy
module Selector = Hppa_plan.Selector
module Samples = Measure.Samples
module Span = Measure.Span

let setups = 3
let window = 0.5  (* seconds; figures are taken over windows (Measure.slow_rate) *)

type unit_ = { source : Program.source; millicode_calls : int; inline_multiplies : int }

let span = Span.with_span

let compile ?(trace = false) (c : Gen.case) =
  let sp name f = if trace then span name f else f () in
  match c.program with
  | Gen.Expr { width; e; certified } ->
      let u =
        sp "compiler.lower.compile" (fun () ->
            Lower.compile ~entry:"f" ~require_certified:certified ~width ~params:[ "x"; "y" ] e)
      in
      { source = u.Lower.source; millicode_calls = u.Lower.millicode_calls; inline_multiplies = u.Lower.inline_multiplies }
  | Gen.Loop { width; loop; reduce } ->
      let inputs = [ "acc"; "n" ] and result = "acc" in
      let u =
        if reduce then
          let r = sp "compiler.strength.reduce" (fun () -> Strength.reduce ~width loop) in
          sp "compiler.lower_loop.compile" (fun () ->
              Lower_loop.compile_reduced ~entry:"f" ~width ~inputs ~result r)
        else
          sp "compiler.lower_loop.compile" (fun () ->
              Lower_loop.compile ~entry:"f" ~width ~inputs ~result loop)
      in
      { source = u.Lower_loop.source; millicode_calls = u.Lower_loop.millicode_calls; inline_multiplies = 0 }

let link ?(trace = false) source =
  let f () = Program.resolve_exn (source @ Hppa.Millicode.source) in
  if trace then span "isa.link" f else f ()

let static_insns source =
  List.length (List.filter (function Program.Insn _ -> true | Program.Label _ -> false) source)

(* Run a linked program on every input of its case; returns the
   simulated cycles. *)
let run_checked o (c : Gen.case) prog =
  let mach = Machine.create prog in
  List.fold_left
    (fun acc input ->
      let outcome, cycles = Machine.call_cycles mach "f" ~args:(Check.program_args c.program input) in
      Report.tally o (Check.check_program c input ~outcome ~get:(Machine.get mach));
      acc + cycles)
    0 c.inputs

(* Constants the corpus multiplies and divides by. *)
let constants corpus =
  let rec walk acc = function
    | Expr.Mul (a, b) | Expr.Div (a, b) | Expr.Rem (a, b) | Expr.Add (a, b) | Expr.Sub (a, b) ->
        walk (walk acc a) b
    | Expr.Neg a -> walk acc a
    | Expr.Const c -> Int64.of_int32 c :: acc
    | Expr.Const64 c -> c :: acc
    | Expr.Var _ -> acc
  in
  List.sort_uniq compare
    (List.concat_map
       (fun (c : Gen.case) ->
         match c.program with
         | Gen.Expr { e; _ } -> walk [] e
         | Gen.Loop { loop; _ } ->
             List.concat_map (fun (Loop_ir.Assign (_, e)) -> walk [] e) loop.Loop_ir.body)
       corpus)

(* The certifiers, on the requests the corpus's constants make plus the
   variable divides the compiler calls (general and small-divisor). *)
let certify_layers corpus =
  let by_kind = Hashtbl.create 8 and checks = Samples.create () in
  let candidates = Samples.create () in
  let selects = Samples.create () in
  let one ?(ctx = Strategy.compiler ()) req =
    match
      Measure.time (fun () -> span "plan.selector.choose" (fun () -> Selector.choose ~ctx req))
    with
    | Error _, _ -> ()
    | Ok ch, dt ->
        Samples.add selects dt;
        Samples.add candidates (float_of_int (List.length ch.Selector.candidates));
        let em = ch.Selector.emission in
        let _, dt = Measure.time (fun () -> span "verify.check" (fun () -> Strategy.verify em)) in
        Samples.add checks dt;
        (match Measure.time (fun () -> span "verify.certify" (fun () -> Strategy.certify req em)) with
        | Ok cert, dt ->
            let kind = Hppa_verify.Certificate.kind_label cert.Hppa_verify.Certificate.kind in
            let s =
              match Hashtbl.find_opt by_kind kind with
              | Some s -> s
              | None ->
                  let s = Samples.create () in
                  Hashtbl.add by_kind kind s;
                  s
            in
            Samples.add s dt
        | Error _, _ -> ())
  in
  List.iter
    (fun c ->
      if Int64.of_int32 (Int64.to_int32 c) = c then begin
        let c32 = Int64.to_int32 c in
        one (Strategy.mul_const c32);
        one (Strategy.div_const Strategy.Signed c32);
        one (Strategy.div_const Strategy.Unsigned c32)
      end;
      one (Strategy.w64_div_const Strategy.Signed c))
    (constants corpus);
  one (Strategy.div_var Strategy.Signed);
  one ~ctx:(Strategy.compiler ~small_divisor_dispatch:true ()) (Strategy.div_var Strategy.Unsigned);
  one (Strategy.w64_div Strategy.Signed);
  let us s = Measure.mean (Samples.to_array s) *. 1e6 in
  List.map
    (fun (metric, label) ->
      ( "verify.certify_us." ^ metric,
        match Hashtbl.find_opt by_kind label with Some s -> us s | None -> 0. ))
    [
      ("linear_mul", "linear_mul");
      ("reciprocal_div", "reciprocal_div");
      ("divide_step", "divide_step");
      ("small_dispatch", "dispatch");
      ("body_equiv", "body_equiv");
    ]
  @ [
      ("verify.check_us", us checks);
      ("plan.selector.choose_us", us selects);
      ("plan.selector.candidates", Measure.mean (Samples.to_array candidates));
    ]

let run ~seed ~seconds ~trace (o : Report.outcome) =
  (* Set-up builds process-global lazy state (the chain tables, the
     millicode image) and warms the chain-search memo, so each timed
     set-up runs in a fresh child process. *)
  let setup () =
    ignore (Hppa.Chain_rules.find 3);
    ignore (Hppa.Millicode.resolved ());
    let corpus = Gen.corpus ~seed in
    List.map (fun c -> (c, (compile c).source)) corpus
  in
  let setup_s =
    Measure.median (Array.init setups (fun _ -> Measure.cpu_in_child (fun () -> ignore (setup ()))))
  in
  let compiled = setup () in
  (* Check each program once; later compiles must produce the same code. *)
  let cycles = ref 0 and runs = ref 0 in
  let reference = Hashtbl.create 64 in
  List.iter
    (fun ((c : Gen.case), source) ->
      cycles := !cycles + run_checked o c (link source);
      runs := !runs + List.length c.inputs;
      Hashtbl.replace reference c.id source)
    compiled;
  let corpus = Array.of_list (List.map fst compiled) in
  let cpu = Samples.create () and wall = Samples.create () and at = Samples.create () in
  let count = ref 0 in
  let t0 = Measure.now () in
  let stop_at = t0 +. seconds in
  while Measure.now () < stop_at do
    let c = corpus.(!count mod Array.length corpus) in
    let c0 = Measure.cpu () and w0 = Measure.now () in
    let u = compile c in
    ignore (link u.source);
    let w1 = Measure.now () in
    Samples.add cpu ((Measure.cpu () -. c0) *. 1e6);
    Samples.add wall ((w1 -. w0) *. 1e6);
    Samples.add at w1;
    incr count;
    if Hashtbl.find reference c.id = u.source then Report.tally o (Ok ())
    else ignore (run_checked o c (link u.source))
  done;
  let windows xs = Measure.windows ~width:window ~t0 ~t1:stop_at (Samples.to_array at) (Samples.to_array xs) in
  let cpu = windows cpu and wall = windows wall in
  (* programs per second of compile-and-link time *)
  let rate w = float_of_int (Array.length w) *. 1e6 /. Array.fold_left ( +. ) 0. w in
  let slow_cpu = Measure.slow_times cpu and slow_wall = Measure.slow_times wall in
  let e2e =
    [
      ("setup_s", setup_s);
      ("ops_per_s", Measure.slow_rate rate cpu);
      ("p50_us", Measure.percentile 50. slow_cpu);
      ("p90_us", Measure.percentile 90. slow_cpu);
      ("p99_us", Measure.percentile 99. slow_cpu);
      ("wall_ops_per_s", Measure.slow_rate rate wall);
      ("wall_p50_us", Measure.percentile 50. slow_wall);
      ("wall_p90_us", Measure.percentile 90. slow_wall);
      ("cycles_mean", float_of_int !cycles /. float_of_int !runs);
    ]
  in
  if not trace then (e2e, [])
  else begin
    Span.reset ();
    let units =
      Array.to_list
        (Array.mapi
           (fun i c ->
             Span.set_request i;
             span "bench.request" (fun () ->
                 let u = compile ~trace:true c in
                 let prog = link ~trace:true u.source in
                 ignore (run_checked o c prog);
                 (c, u)))
           corpus)
    in
    let self = Span.self_times () in
    let us name = Measure.mean (self name) *. 1e6 in
    let mean f l = Measure.mean (Array.of_list (List.map (fun x -> float_of_int (f x)) l)) in
    let exprs = List.filter (fun ((c : Gen.case), _) -> match c.program with Gen.Expr _ -> true | _ -> false) units in
    ( e2e,
      [
        ("compiler.strength.reduce_us", us "compiler.strength.reduce");
        ("compiler.lower.compile_us", us "compiler.lower.compile");
        ("compiler.lower_loop.compile_us", us "compiler.lower_loop.compile");
        ("isa.link_us", us "isa.link");
        ("compiler.millicode_calls", mean (fun (_, u) -> u.millicode_calls) units);
        ("compiler.inline_multiplies", mean (fun (_, u) -> u.inline_multiplies) exprs);
        ("compiler.gen_static_insns", mean (fun (_, u) -> static_insns u.source) units);
      ]
      @ certify_layers (Array.to_list corpus) )
  end
