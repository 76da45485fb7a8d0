(* Tests for the kernel-strategy layer (lib/plan): every selected plan
   is lint-clean and round-trips through the encoder; the selector
   agrees with the compiler's inline threshold; differential coverage
   against the Cpu reference and the millicode fallback over all
   divisors 1..4096 and 1k seeded multipliers, with the measured-cycle
   gate; the autotune store round-trips through BENCH_PLANS.json. *)

module Word = Hppa_word.Word
module Machine = Hppa_machine.Machine
module Plan = Hppa_plan.Strategy
module Selector = Hppa_plan.Selector
module Autotune = Hppa_plan.Autotune
module Obs = Hppa_obs.Obs
module Dist = Hppa_dist.Operand_dist
module Prng = Hppa_dist.Prng
open Hppa

let choose_exn ?ctx req =
  match Selector.choose ?ctx req with
  | Ok c -> c
  | Error e ->
      Alcotest.failf "no plan for %s: %s" (Plan.request_id req) e

let machine_of emission =
  match Plan.link emission with
  | Ok prog -> Machine.create prog
  | Error e -> Alcotest.failf "link %s: %s" emission.Plan.entry e

let milli = lazy (Millicode.machine ())

let call_ret0 mach entry args =
  match Machine.call_cycles mach entry ~args with
  | Machine.Halted, cycles -> (Machine.get mach Reg.ret0, cycles)
  | Machine.Trapped t, _ ->
      Alcotest.failf "%s trapped: %s" entry (Hppa_machine.Trap.to_string t)
  | Machine.Fuel_exhausted, _ -> Alcotest.failf "%s ran out of fuel" entry

(* ------------------------------------------------------------------ *)
(* Requests round-trip; the CLI parser                                 *)

let test_request_parse () =
  let ok s expect =
    match Plan.request_of_string s with
    | Ok r -> Alcotest.(check string) s expect (Plan.request_id r)
    | Error e -> Alcotest.failf "%S: %s" s e
  in
  ok "mul 625" "mul.c625.s";
  ok "mulo 31" "mul.c31.s.trap";
  ok "mul x" "mul.var.s";
  ok "divu 10" "div.c10.u";
  ok "divi -7" "div.c-7.s";
  ok "remi var" "rem.var.s";
  ok "  remu   3 " "rem.c3.u";
  let bad s =
    match Plan.request_of_string s with
    | Ok _ -> Alcotest.failf "%S should not parse" s
    | Error _ -> ()
  in
  bad "";
  bad "mul";
  bad "frob 3";
  bad "mul 3 4";
  bad "divu 99999999999"

(* ------------------------------------------------------------------ *)
(* Acceptance: every selected plan is lint-clean and encodable         *)

let matrix_requests =
  let consts = [ 1l; 2l; 3l; 5l; 7l; 10l; 11l; 60l; 625l; 641l; 1000l ] in
  List.concat
    [
      List.map Plan.mul_const consts;
      List.map (Plan.mul_const ~trap_overflow:true) [ 3l; 31l; 625l ];
      List.map Plan.mul_const [ -7l; -625l; Int32.min_int ];
      [ Plan.mul_var (); Plan.mul_var ~trap_overflow:true () ];
      List.map (Plan.div_const Plan.Unsigned) consts;
      List.map (Plan.div_const Plan.Signed) (consts @ [ -3l; -10l ]);
      List.map (Plan.rem_const Plan.Unsigned) [ 3l; 7l; 10l ];
      List.map (Plan.rem_const Plan.Signed) [ 3l; 7l; 10l; -7l ];
      [
        Plan.div_var Plan.Unsigned; Plan.div_var Plan.Signed;
        Plan.rem_var Plan.Unsigned; Plan.rem_var Plan.Signed;
      ];
    ]

let test_matrix_verified () =
  List.iter
    (fun req ->
      List.iter
        (fun ctx ->
          let id = Plan.request_id req in
          let choice = choose_exn ~ctx req in
          let em = choice.Selector.emission in
          (match Plan.verify em with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: %s not lint-clean: %s" id em.Plan.entry e);
          (match Plan.encoded em with
          | Ok words ->
              Alcotest.(check bool)
                (id ^ " encodes") true
                (Array.length words > 0)
          | Error e -> Alcotest.failf "%s: encode: %s" id e);
          match Plan.digest em with
          | Ok d -> Alcotest.(check int) (id ^ " md5 hex") 32 (String.length d)
          | Error e -> Alcotest.failf "%s: digest: %s" id e)
        [ Plan.standalone; Plan.compiler (); Plan.compiler ~small_divisor_dispatch:true () ])
    matrix_requests

(* The selector and the compiler agree on what gets inlined. *)
let test_inline_threshold_agreement () =
  for c = 1 to 512 do
    let req = Plan.mul_const (Int32.of_int c) in
    let choice = choose_exn ~ctx:(Plan.compiler ()) req in
    let len = Chain.length (Chain_rules.find_exn c) in
    let expect = if len <= 6 then "mul_const_chain" else "mul_millicode" in
    Alcotest.(check string)
      (Printf.sprintf "c=%d (chain %d)" c len)
      expect choice.Selector.chosen.Plan.name
  done

(* ------------------------------------------------------------------ *)
(* Differential: all divisors 1..4096 against Cpu reference + divU     *)

let test_differential_divisors () =
  let prng = Prng.create 0x5eedL in
  let milli = Lazy.force milli in
  for d = 1 to 4096 do
    let dw = Word.of_int d in
    let choice = choose_exn (Plan.div_const Plan.Unsigned dw) in
    let em = choice.Selector.emission in
    let mach = machine_of em in
    let dividends =
      [ 0l; 1l; dw; Word.max_unsigned ]
      @ List.init 4 (fun _ ->
            let x = Dist.log_uniform ~bits:32 prng in
            if Word.equal x 0l then 7l else x)
    in
    let chosen_cycles = ref 0 and fallback_cycles = ref 0 in
    let ldi_len = List.length (Emit.ldi dw Reg.arg1) in
    List.iter
      (fun x ->
        let expect, _ = Word.divmod_u x dw in
        let got, cycles = call_ret0 mach em.Plan.entry [ x ] in
        if not (Word.equal got expect) then
          Alcotest.failf "d=%d x=%ld: %s gave %ld, reference %ld" d x
            em.Plan.entry got expect;
        let milli_q, milli_cycles = call_ret0 milli "divU" [ x; dw ] in
        if not (Word.equal milli_q expect) then
          Alcotest.failf "d=%d x=%ld: divU gave %ld, reference %ld" d x
            milli_q expect;
        chosen_cycles := !chosen_cycles + cycles;
        fallback_cycles := !fallback_cycles + milli_cycles + ldi_len + 1)
      dividends;
    (* The cycle gate: over the sample set, the selected plan is never
       slower than materialising the divisor and calling divU. *)
    if !chosen_cycles > !fallback_cycles then
      Alcotest.failf "d=%d: chosen %s cost %d cycles, divU fallback %d" d
        choice.Selector.chosen.Plan.name !chosen_cycles !fallback_cycles
  done

(* Differential: 1k seeded multipliers against mul_lo + mulI.  The
   cycle gate here is aggregate: individual tiny multipliers can hit
   mulI's early exits, but over the seeded set the selected plans must
   not lose to the millicode call. *)
let test_differential_multipliers () =
  let prng = Prng.create 0x1234L in
  let milli = Lazy.force milli in
  let chosen_total = ref 0 and fallback_total = ref 0 in
  for i = 1 to 1000 do
    let c =
      let raw = Dist.log_uniform ~bits:31 prng in
      let raw = if Word.equal raw 0l then 3l else raw in
      if i mod 4 = 0 then Word.neg raw else raw
    in
    let choice = choose_exn (Plan.mul_const c) in
    let em = choice.Selector.emission in
    let mach = machine_of em in
    let ldi_len = List.length (Emit.ldi c Reg.arg1) in
    let xs =
      List.init 3 (fun _ ->
          let x = Dist.log_uniform ~bits:16 prng in
          if i mod 2 = 0 then Word.neg x else x)
    in
    List.iter
      (fun x ->
        let expect = Word.mul_lo x c in
        let got, cycles = call_ret0 mach em.Plan.entry [ x ] in
        if not (Word.equal got expect) then
          Alcotest.failf "c=%ld x=%ld: %s gave %ld, mul_lo %ld" c x
            em.Plan.entry got expect;
        let milli_p, milli_cycles = call_ret0 milli "mulI" [ x; c ] in
        if not (Word.equal milli_p expect) then
          Alcotest.failf "c=%ld x=%ld: mulI gave %ld, mul_lo %ld" c x milli_p
            expect;
        chosen_total := !chosen_total + cycles;
        fallback_total := !fallback_total + milli_cycles + ldi_len + 1)
      xs
  done;
  if !chosen_total > !fallback_total then
    Alcotest.failf "selected multiply plans cost %d cycles, mulI fallback %d"
      !chosen_total !fallback_total

(* ------------------------------------------------------------------ *)
(* Variable-operand selection sanity                                   *)

let test_variable_selection () =
  let choice = choose_exn (Plan.mul_var ()) in
  Alcotest.(check string) "mul var" "mul_millicode"
    choice.Selector.chosen.Plan.name;
  let choice = choose_exn (Plan.div_var Plan.Unsigned) in
  Alcotest.(check string) "div var" "div_millicode"
    choice.Selector.chosen.Plan.name;
  (* Under a small-divisor operand model the §7 dispatch wins. *)
  let ctx = Plan.compiler ~small_divisor_dispatch:true () in
  let choice = choose_exn ~ctx (Plan.div_var Plan.Signed) in
  Alcotest.(check string) "small-divisor div var" "div_small"
    choice.Selector.chosen.Plan.name;
  (* Modelled baselines appear as candidates but are never chosen. *)
  let cands = Selector.candidates (Plan.mul_var ()) in
  Alcotest.(check bool) "booth is a candidate" true
    (List.exists
       (fun c -> c.Selector.strategy.Plan.name = "baseline_booth")
       cands)

(* ------------------------------------------------------------------ *)
(* Certified-only selection                                            *)

let test_certified_selection () =
  let obs = Obs.Registry.create () in
  List.iter
    (fun req ->
      let id = Plan.request_id req in
      (* Unproved selection carries no certificate. *)
      let plain = choose_exn req in
      Alcotest.(check bool) (id ^ " unproved") true
        (plain.Selector.certificate = None);
      match Selector.choose ~obs ~require_certified:true req with
      | Error e -> Alcotest.failf "%s: no certified strategy: %s" id e
      | Ok choice -> (
          match choice.Selector.certificate with
          | None -> Alcotest.failf "%s: certified choice without certificate" id
          | Some cert ->
              Alcotest.(check int) (id ^ " cert digest hex") 32
                (String.length cert.Hppa_verify.Certificate.digest);
              (* The table prints the winner's proof. *)
              let table =
                Format.asprintf "%a" Selector.pp_choice choice
              in
              let contains needle =
                let n = String.length needle and h = String.length table in
                let rec go i =
                  i + n <= h && (String.sub table i n = needle || go (i + 1))
                in
                go 0
              in
              Alcotest.(check bool) (id ^ " table shows certificate") true
                (contains "certified:")))
    [
      Plan.mul_const 625l;
      Plan.mul_const (-7l);
      Plan.div_const Plan.Unsigned 7l;
      Plan.div_const Plan.Signed (-10l);
      Plan.rem_const Plan.Unsigned 10l;
      Plan.div_var Plan.Unsigned;
      Plan.rem_var Plan.Signed;
    ];
  (* The per-kind counter landed. *)
  let text = Obs.Export.prometheus (Obs.Registry.snapshot obs) in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "hppa_verify_certified_total exported" true
    (contains "hppa_verify_certified_total")

(* No certifier covers a variable multiply (the nibble loop has no
   linear form), so certified-only selection must fail — with the
   rejection spelled out, not a bare "no strategy". *)
let test_certified_rejects_variable_multiply () =
  match Selector.choose ~require_certified:true (Plan.mul_var ()) with
  | Ok c ->
      Alcotest.failf "variable multiply certified as %s"
        c.Selector.chosen.Plan.name
  | Error e ->
      let contains needle =
        let n = String.length needle and h = String.length e in
        let rec go i = i + n <= h && (String.sub e i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) ("reason names certification: " ^ e) true
        (contains "not certified")

(* ------------------------------------------------------------------ *)
(* Autotune: measurement, gate, store round trip, metrics              *)

let test_autotune_report () =
  let store = Autotune.Store.create () in
  let obs = Obs.Registry.create () in
  let workload = Autotune.Figure5 { samples = 40; seed = 7L } in
  let report =
    match Autotune.tune ~store ~obs workload (Plan.mul_const 625l) with
    | Ok r -> r
    | Error e -> Alcotest.failf "tune: %s" e
  in
  Alcotest.(check bool) "gate holds for 625" true report.Autotune.gate_ok;
  Alcotest.(check string) "chain chosen" "mul_const_chain"
    report.Autotune.choice.Selector.chosen.Plan.name;
  Alcotest.(check bool) "fallback measured" true
    (report.Autotune.fallback <> None);
  Alcotest.(check bool) "engine used" true
    report.Autotune.chosen.Autotune.used_engine;
  (* Booth's model shows up as a measurement of the variable multiply. *)
  let vreport =
    match Autotune.tune ~store ~obs workload (Plan.mul_var ()) with
    | Ok r -> r
    | Error e -> Alcotest.failf "tune var: %s" e
  in
  Alcotest.(check bool) "booth measured" true
    (List.mem_assoc "baseline_booth" vreport.Autotune.measurements);
  (* Metrics landed in the registry. *)
  let text = Obs.Export.prometheus (Obs.Registry.snapshot obs) in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains needle))
    [
      "hppa_plan_selections_total";
      "hppa_plan_candidates_total";
      "hppa_plan_measured_total";
      "hppa_plan_wins_total";
      "hppa_plan_store_entries";
    ]

let test_store_round_trip () =
  let store = Autotune.Store.create () in
  let obs = Obs.Registry.create () in
  let workload = Autotune.Fixed [ (100l, 0l); (12345l, 0l); (7l, 0l) ] in
  List.iter
    (fun req ->
      match Autotune.tune ~store ~obs workload req with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "tune %s: %s" (Plan.request_id req) e)
    [ Plan.mul_const 60l; Plan.div_const Plan.Unsigned 10l ];
  let n = Autotune.Store.length store in
  Alcotest.(check bool) "store populated" true (n > 0);
  let path = Filename.temp_file "bench_plans" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match Autotune.Store.save store path with
      | Ok () -> ()
      | Error e -> Alcotest.failf "save: %s" e);
      match Autotune.Store.load path with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok loaded ->
          Alcotest.(check int) "same size" n (Autotune.Store.length loaded);
          Alcotest.(check bool) "same entries" true
            (Autotune.Store.entries loaded = Autotune.Store.entries store);
          (* A warm store short-circuits measurement: re-tuning only
             produces store hits, no new entries. *)
          (match
             Autotune.tune ~store:loaded ~obs workload (Plan.mul_const 60l)
           with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "warm tune: %s" e);
          Alcotest.(check int) "no growth on warm tune" n
            (Autotune.Store.length loaded))

(* Certificates ride along in BENCH_PLANS.json (schema
   hppa-bench-plans/2): measuring a certifiable division attaches the
   certificate kind and digest, and both survive a save/load cycle. *)
let test_store_cert_round_trip () =
  let store = Autotune.Store.create () in
  let workload = Autotune.Fixed [ (100l, 0l); (7l, 0l) ] in
  (match Autotune.tune ~store workload (Plan.div_const Plan.Unsigned 7l) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "tune: %s" e);
  let certified =
    List.filter
      (fun (m : Autotune.measurement) -> m.Autotune.cert_kind <> None)
      (Autotune.Store.entries store)
  in
  Alcotest.(check bool) "some measurements carry certificates" true
    (certified <> []);
  List.iter
    (fun (m : Autotune.measurement) ->
      match m.Autotune.cert_digest with
      | Some d -> Alcotest.(check int) "cert digest hex" 32 (String.length d)
      | None -> Alcotest.fail "cert_kind without cert_digest")
    certified;
  let json = Autotune.Store.to_json store in
  let contains needle =
    let n = String.length needle and h = String.length json in
    let rec go i = i + n <= h && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "schema v2" true (contains "hppa-bench-plans/2");
  Alcotest.(check bool) "cert_kind serialized" true (contains "cert_kind");
  match Autotune.Store.of_json json with
  | Error e -> Alcotest.failf "reload: %s" e
  | Ok loaded ->
      Alcotest.(check bool) "cert fields survive round trip" true
        (Autotune.Store.entries loaded = Autotune.Store.entries store)

(* Batched measurement is a pure perf optimization: the verdict —
   every cycle aggregate — must be identical at any batch width, and
   the width used must survive the BENCH_PLANS.json round trip. *)
let test_measure_batch_parity () =
  let workload = Autotune.Figure5 { samples = 37; seed = 11L } in
  let req = Plan.mul_const 625l in
  let strategy =
    match Selector.choose req with
    | Ok c -> c.Selector.chosen
    | Error e -> Alcotest.failf "choose: %s" e
  in
  let verdict width =
    match Autotune.measure ~batch_width:width workload req strategy with
    | Ok m -> m
    | Error e -> Alcotest.failf "measure width %d: %s" width e
  in
  let scalar = verdict 1 in
  Alcotest.(check int) "scalar records width 1" 1 scalar.Autotune.batch_width;
  List.iter
    (fun width ->
      let m = verdict width in
      Alcotest.(check int)
        (Printf.sprintf "width %d records its width" width)
        (min width 37) m.Autotune.batch_width;
      Alcotest.(check int)
        (Printf.sprintf "width %d total cycles" width)
        scalar.Autotune.total_cycles m.Autotune.total_cycles;
      Alcotest.(check int)
        (Printf.sprintf "width %d min cycles" width)
        scalar.Autotune.min_cycles m.Autotune.min_cycles;
      Alcotest.(check int)
        (Printf.sprintf "width %d max cycles" width)
        scalar.Autotune.max_cycles m.Autotune.max_cycles;
      Alcotest.(check int)
        (Printf.sprintf "width %d samples" width)
        scalar.Autotune.samples m.Autotune.samples)
    [ 4; 16; 256 ];
  (* batch_width survives serialization; width-1 entries serialize
     byte-identically to pre-batch stores (no field emitted). *)
  let store = Autotune.Store.create () in
  Autotune.Store.add store (verdict 16);
  let json = Autotune.Store.to_json store in
  let contains needle =
    let n = String.length needle and h = String.length json in
    let rec go i = i + n <= h && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "batch_width serialized" true
    (contains "\"batch_width\":16");
  (match Autotune.Store.of_json json with
  | Error e -> Alcotest.failf "reload: %s" e
  | Ok loaded ->
      Alcotest.(check bool) "batched entry round trips" true
        (Autotune.Store.entries loaded = Autotune.Store.entries store));
  let scalar_store = Autotune.Store.create () in
  Autotune.Store.add scalar_store scalar;
  Alcotest.(check bool) "width 1 omits the field" false
    (let json = Autotune.Store.to_json scalar_store in
     let n = String.length "batch_width" and h = String.length json in
     let rec go i =
       i + n <= h && (String.sub json i n = "batch_width" || go (i + 1))
     in
     go 0)

(* ------------------------------------------------------------------ *)
(* Digest = MD5 of the whole linked image                              *)

(* The content address as the whole image gives it: link the emission
   with its dependencies, encode every word, check the round trip, hash. *)
let whole_image_digest em =
  Result.map
    (fun words ->
      let b = Bytes.create (4 * Array.length words) in
      Array.iteri (fun i w -> Bytes.set_int32_le b (i * 4) w) words;
      Digest.to_hex (Digest.bytes b))
    (Plan.encoded em)

let test_digest_whole_image () =
  let g = Prng.create 16L in
  let consts =
    [ 1; 2; 3; 5; 7; 10; 11; 25; 60; 625; 641; 1000; 6700417; 0x7fffffff ]
    @ List.init 30 (fun i ->
          let bits = i + 2 in
          Prng.int_range g (1 lsl (bits - 1)) ((1 lsl bits) - 1))
  in
  let consts =
    List.concat_map (fun c -> [ Int32.of_int c; Int32.of_int (-c) ]) consts
    @ [ Int32.min_int ]
  in
  let both f = [ f Plan.Unsigned; f Plan.Signed ] in
  let requests =
    List.concat_map
      (fun c ->
        [ Plan.mul_const c; Plan.mul_const ~trap_overflow:true c ]
        @ both (fun s -> Plan.div_const s c)
        @ both (fun s -> Plan.rem_const s c))
      consts
    @ [ Plan.mul_var (); Plan.mul_var ~trap_overflow:true () ]
    @ both Plan.div_var @ both Plan.rem_var
    @ List.concat_map (fun k -> both (Plan.w64_run k)) Hppa_w64.kernels
    @ List.concat_map
        (fun c ->
          [ Plan.w64_mul_const c ]
          @ both (fun s -> Plan.w64_div_const s c)
          @ both (fun s -> Plan.w64_rem_const s c))
        [ 3L; -7L; 625L; 0x1_0000_0001L; -0x7fff_ffffL ]
  in
  let millicode = ref 0 and fallback = ref 0 and emissions = ref 0 in
  List.iter
    (fun req ->
      List.iter
        (fun (s : Plan.t) ->
          if s.Plan.kind = Plan.Emits && s.Plan.applies req then
            match s.Plan.emit req with
            | Error _ -> ()
            | Ok em ->
                incr emissions;
                (match em.Plan.detail with
                | Plan.Millicode _ -> incr millicode
                | Plan.Div_plan
                    { Div_const.strategy = Div_const.General_fallback; _ } ->
                    incr fallback
                | Plan.Div_plan _ | Plan.Mul_plan _ | Plan.Pair_chain _ -> ());
                let label =
                  Printf.sprintf "%s %s" (Plan.request_id req) s.Plan.name
                in
                Alcotest.(check (result string string))
                  label (whole_image_digest em) (Plan.digest em))
        Plan.all)
    requests;
  (* Twice more, in one domain and then another: each library is encoded
     once per process, and later digests must not depend on that. *)
  let again () =
    List.map
      (fun req ->
        Result.bind (Selector.choose req) (fun c ->
            Plan.digest c.Selector.emission))
      requests
  in
  let here = again () in
  Alcotest.(check (list (result string string)))
    "another domain" here
    (Domain.join (Domain.spawn again));
  if !millicode = 0 || !fallback = 0 then
    Alcotest.failf "sweep lacks millicode (%d) or divU fallback (%d) emissions"
      !millicode !fallback;
  Alcotest.(check bool) "emissions" true (!emissions > 500)

(* ------------------------------------------------------------------ *)
(* The W64 (double-word) family through the same layers                *)

let w64_requests =
  [
    Plan.w64_mul Plan.Unsigned; Plan.w64_mul Plan.Signed;
    Plan.w64_div Plan.Unsigned; Plan.w64_div Plan.Signed;
    Plan.w64_rem Plan.Unsigned; Plan.w64_rem Plan.Signed;
  ]

let test_w64_request_parse () =
  let ok s expect =
    match Plan.request_of_string s with
    | Ok r -> Alcotest.(check string) s expect (Plan.request_id r)
    | Error e -> Alcotest.failf "%S: %s" s e
  in
  ok "w64mulu x" "mul.var.u.w64";
  ok "w64muli x" "mul.var.s.w64";
  ok "w64divu x" "div.var.u.w64";
  ok "w64divi x" "div.var.s.w64";
  ok "w64remu x" "rem.var.u.w64";
  ok "w64remi x" "rem.var.s.w64";
  ok "w64divl x" "divl.var.u.w64";
  (* The two-operand w64 forms accept full 64-bit constants. *)
  ok "w64mulu 3" "mul.c3.u.w64";
  ok "w64muli -15" "mul.c-15.s.w64";
  ok "w64divu 10" "div.c10.u.w64";
  ok "w64remi 7" "rem.c7.s.w64";
  ok "w64mulu 0x100000001" "mul.c4294967297.u.w64";
  let bad s =
    match Plan.request_of_string s with
    | Ok r -> Alcotest.failf "%S should not parse (got %s)" s (Plan.request_id r)
    | Error _ -> ()
  in
  (* The 128/64 divide takes all three operands at run time. *)
  bad "w64divl 5";
  bad "w64divu";
  bad "w64frob x"

(* Every W64 request selects its millicode strategy, and the emission
   passes the same acceptance bar as the 32-bit matrix: lint-clean,
   encodable, digestible — and behaviourally pinned to the two-word
   reference through the linked image. *)
let test_w64_selection () =
  List.iter2
    (fun req expect ->
      let id = Plan.request_id req in
      let choice = choose_exn req in
      Alcotest.(check string) id expect choice.Selector.chosen.Plan.name;
      let em = choice.Selector.emission in
      (match Plan.verify em with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: not lint-clean: %s" id e);
      (match Plan.digest em with
      | Ok d -> Alcotest.(check int) (id ^ " md5 hex") 32 (String.length d)
      | Error e -> Alcotest.failf "%s: digest: %s" id e);
      let target =
        match em.Plan.detail with
        | Plan.Millicode t -> t
        | Plan.Mul_plan _ | Plan.Div_plan _ | Plan.Pair_chain _ ->
            Alcotest.failf "%s: w64 emission is not millicode" id
      in
      (* The target is the served row's entry, and behaves as its model. *)
      let k = Plan.w64_kernel req.Plan.op in
      let signed = req.Plan.signedness = Plan.Signed in
      Alcotest.(check string)
        (id ^ " target") (Hppa_w64.kernel_entry k ~signed) target;
      let mach = machine_of em in
      List.iter
        (fun (x, y) ->
          let got = Hppa_w64.call mach k ~signed [ x; y ] in
          let want = k.Hppa_w64.reference ~signed [ x; y ] in
          if not (Hppa_w64.outcome_equal got want) then
            Alcotest.failf "%s 0x%Lx 0x%Lx: %a want %a" id x y
              Hppa_w64.pp_outcome got Hppa_w64.pp_outcome want)
        [ (0x123456789L, 0x7fedcba98L); (-7L, 3L); (5L, 0L) ])
    w64_requests
    [
      "w64_mul_millicode"; "w64_mul_millicode"; "w64_div_millicode";
      "w64_div_millicode"; "w64_div_millicode"; "w64_div_millicode";
    ]

(* Certified-only serving: every W64 plan carries a body-equivalence
   certificate against the canonical library image. *)
let test_w64_certified_selection () =
  let obs = Obs.Registry.create () in
  List.iter
    (fun req ->
      let id = Plan.request_id req in
      match Selector.choose ~obs ~require_certified:true req with
      | Error e -> Alcotest.failf "%s: %s" id e
      | Ok choice -> (
          match choice.Selector.certificate with
          | None -> Alcotest.failf "%s: certified choice without certificate" id
          | Some cert ->
              Alcotest.(check string) (id ^ " kind") "body_equiv"
                (Hppa_verify.Certificate.kind_label
                   cert.Hppa_verify.Certificate.kind);
              Alcotest.(check int) (id ^ " digest hex") 32
                (String.length cert.Hppa_verify.Certificate.digest)))
    w64_requests

(* Autotune over the 64-bit operand models: the gate holds for every
   entry, batched measurement agrees with scalar, and mismatched
   request/workload pairings are explicit errors. *)
let test_w64_autotune () =
  let store = Autotune.Store.create () in
  let obs = Obs.Registry.create () in
  let workload = Autotune.Hw0 { samples = 24; seed = 9L } in
  List.iter
    (fun req ->
      match Autotune.tune ~store ~obs workload req with
      | Ok r ->
          Alcotest.(check bool)
            (Plan.request_id req ^ " gate") true r.Autotune.gate_ok
      | Error e -> Alcotest.failf "tune %s: %s" (Plan.request_id req) e)
    w64_requests;
  let req = Plan.w64_div Plan.Unsigned in
  let strategy = (choose_exn req).Selector.chosen in
  let verdict width =
    match Autotune.measure ~batch_width:width workload req strategy with
    | Ok m -> m
    | Error e -> Alcotest.failf "measure width %d: %s" width e
  in
  let scalar = verdict 1 and batched = verdict 8 in
  Alcotest.(check int) "total cycles" scalar.Autotune.total_cycles
    batched.Autotune.total_cycles;
  Alcotest.(check int) "min cycles" scalar.Autotune.min_cycles
    batched.Autotune.min_cycles;
  Alcotest.(check int) "max cycles" scalar.Autotune.max_cycles
    batched.Autotune.max_cycles;
  (* A 32-bit workload widens for a w64 request (the kernels accept any
     operand model); the reverse pairing has no 32-bit reading and must
     be an explicit error, not an empty measurement. *)
  (match
     Autotune.measure (Autotune.Figure5 { samples = 8; seed = 1L }) req strategy
   with
  | Ok m -> Alcotest.(check int) "widened samples" 8 m.Autotune.samples
  | Error e -> Alcotest.failf "widened 32-bit workload: %s" e);
  let req32 = Plan.mul_const 7l in
  match Autotune.measure workload req32 (choose_exn req32).Selector.chosen with
  | Ok _ -> Alcotest.fail "64-bit workload accepted for a 32-bit request"
  | Error _ -> ()

let test_store_rejects_garbage () =
  (match Autotune.Store.of_json "" with
  | Ok _ -> Alcotest.fail "empty input accepted"
  | Error _ -> ());
  (match Autotune.Store.of_json "{\"schema\":\"wrong/9\",\"entries\":[]}" with
  | Ok _ -> Alcotest.fail "wrong schema accepted"
  | Error _ -> ());
  match
    Autotune.Store.of_json
      "{\"schema\":\"hppa-bench-plans/1\",\"entries\":[{\"digest\":\"d\"}]}"
  with
  | Ok _ -> Alcotest.fail "truncated entry accepted"
  | Error _ -> ()

(* Three entries of a store written by `bench plans --fast` before the
   store moved onto Obs.Json: one with batch_width and certificate
   fields, one with batch_width only, one with neither. Loading and
   saving it again must give back the same bytes. *)
let old_store =
  "{\"schema\":\"hppa-bench-plans/2\",\"entries\":[\
   {\"digest\":\"032bc9a4b6d1f61b80bcc3c0e94d32bd\",\"workload\":\"hw0:16:6221156\",\
   \"strategy\":\"w64_divl_millicode\",\"request\":\"divl.var.u.w64\",\
   \"entry\":\"via_divU128by64\",\"samples\":16,\"total_cycles\":5499,\
   \"min_cycles\":173,\"max_cycles\":1539,\"used_engine\":true,\
   \"batch_width\":16,\"cert_kind\":\"body_equiv\",\
   \"cert_digest\":\"fad9cc36485f65e710dd52c81145c3b2\"},\
   {\"digest\":\"04b594bfabb7c91afe9157a1b8a521c1\",\"workload\":\"figure5:32:24301\",\
   \"strategy\":\"mul_millicode\",\"request\":\"mul.var.s\",\"entry\":\"via_mulI\",\
   \"samples\":32,\"total_cycles\":648,\"min_cycles\":15,\"max_cycles\":37,\
   \"used_engine\":true,\"batch_width\":32},\
   {\"digest\":\"model:baseline_booth\",\"workload\":\"figure5:32:24301\",\
   \"strategy\":\"baseline_booth\",\"request\":\"mul.var.s\",\"entry\":\"\",\
   \"samples\":32,\"total_cycles\":640,\"min_cycles\":20,\"max_cycles\":20,\
   \"used_engine\":false}]}\n"

let test_old_store_bytes () =
  match Autotune.Store.of_json old_store with
  | Error e -> Alcotest.failf "old store: %s" e
  | Ok store ->
      Alcotest.(check int) "entries" 3 (Autotune.Store.length store);
      Alcotest.(check string) "same bytes" old_store
        (Autotune.Store.to_json store)

(* The store is outside input (hppa-serve --plans): an integer field
   holding 1.5 or 1e30 is refused with an error naming the field, not
   truncated or reported as missing. *)
let test_store_integer_fields () =
  let with_samples v =
    let key = "\"samples\":32" in
    let i =
      let rec find i =
        if String.sub old_store i (String.length key) = key then i
        else find (i + 1)
      in
      find 0
    in
    String.sub old_store 0 i ^ "\"samples\":" ^ v
    ^ String.sub old_store (i + String.length key)
        (String.length old_store - i - String.length key)
  in
  let contains hay needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun v ->
      match Autotune.Store.of_json (with_samples v) with
      | Ok _ -> Alcotest.failf "samples %s accepted" v
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "samples %s: error %S names the field" v e)
            true
            (contains e "\"samples\"" && not (contains e "missing")))
    [ "1.5"; "1e30"; "99999999999999999999"; "\"32\"" ]

let suite =
  [
    ( "plan:request",
      [ Alcotest.test_case "parse / id" `Quick test_request_parse ] );
    ( "plan:selector",
      [
        Alcotest.test_case "matrix is lint-clean + encodable" `Quick
          test_matrix_verified;
        Alcotest.test_case "inline threshold agreement" `Quick
          test_inline_threshold_agreement;
        Alcotest.test_case "variable-operand selection" `Quick
          test_variable_selection;
        Alcotest.test_case "certified-only selection" `Quick
          test_certified_selection;
        Alcotest.test_case "certified rejects variable multiply" `Quick
          test_certified_rejects_variable_multiply;
        Alcotest.test_case "digest = MD5 of the whole linked image" `Quick
          test_digest_whole_image;
      ] );
    ( "plan:differential",
      [
        Alcotest.test_case "divisors 1..4096 vs divU" `Slow
          test_differential_divisors;
        Alcotest.test_case "1k multipliers vs mulI" `Slow
          test_differential_multipliers;
      ] );
    ( "plan:autotune",
      [
        Alcotest.test_case "report + gate + metrics" `Quick
          test_autotune_report;
        Alcotest.test_case "store round trip" `Quick test_store_round_trip;
        Alcotest.test_case "store certificate round trip" `Quick
          test_store_cert_round_trip;
        Alcotest.test_case "batch measurement parity" `Quick
          test_measure_batch_parity;
        Alcotest.test_case "store rejects garbage" `Quick
          test_store_rejects_garbage;
        Alcotest.test_case "old store bytes" `Quick test_old_store_bytes;
        Alcotest.test_case "store integer fields" `Quick
          test_store_integer_fields;
      ] );
    ( "plan:w64",
      [
        Alcotest.test_case "request parse / id" `Quick test_w64_request_parse;
        Alcotest.test_case "selection + acceptance + differential" `Quick
          test_w64_selection;
        Alcotest.test_case "certified selection (body_equiv)" `Quick
          test_w64_certified_selection;
        Alcotest.test_case "autotune gate + batch parity + pairing errors"
          `Quick test_w64_autotune;
      ] );
  ]
