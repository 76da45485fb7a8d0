(* The harness's own tests: deterministic generators, workload shapes,
   and planted wrong replies and results being caught by the checks. *)

open Hppa_perfbench
open Hppa_compiler
module Plan = Hppa_server.Plan
module Machine = Hppa_machine.Machine

let take n f = List.init n (fun _ -> f ())

let hot_lines seed stream n =
  take n (Gen.hot_stream (Gen.hot_pool ()) ~seed ~stream)

(* ------------------------------------------------------------------ *)
(* Generators                                                           *)

let test_deterministic () =
  let same name a b = Alcotest.(check bool) name true (a = b) in
  let differ name a b = Alcotest.(check bool) name true (a <> b) in
  same "hot stream" (hot_lines 3 1 500) (hot_lines 3 1 500);
  differ "hot stream" (hot_lines 3 1 500) (hot_lines 4 1 500);
  let miss seed = take 500 (Gen.miss_stream ~seed) in
  same "miss stream" (miss 3) (miss 3);
  differ "miss stream" (miss 3) (miss 4);
  same "sim operands" (Gen.sim_kernels ~seed:3) (Gen.sim_kernels ~seed:3);
  differ "sim operands" (Gen.sim_kernels ~seed:3) (Gen.sim_kernels ~seed:4);
  same "corpus" (Gen.corpus ~seed:3) (Gen.corpus ~seed:3);
  differ "corpus" (Gen.corpus ~seed:3) (Gen.corpus ~seed:4)

let test_miss_keys_unique () =
  List.iter
    (fun seed ->
      let keys = Gen.miss_warm_keys @ List.map snd (take 20_000 (Gen.miss_stream ~seed)) in
      let seen = Hashtbl.create 20_000 in
      List.iter
        (fun k ->
          if Hashtbl.mem seen k then Alcotest.failf "seed %d repeats %s" seed k;
          if k = "DIV 0" then Alcotest.failf "seed %d draws DIV 0" seed;
          Hashtbl.add seen k ())
        keys)
    [ 1; 2; 3 ]

let test_hot_timed_subset_of_warmed () =
  List.iter
    (fun seed ->
      let warmed = Array.to_list (Gen.hot_pool ()).Gen.keys in
      List.iter
        (fun line ->
          let keys =
            match String.split_on_char ' ' line with
            | ("MULB" | "DIVB") :: lanes ->
                let verb = String.sub line 0 3 in
                List.map (fun l -> verb ^ " " ^ l) lanes
            | _ -> [ line ]
          in
          List.iter
            (fun k ->
              if not (List.mem k warmed) then Alcotest.failf "timed key %s was not warmed" k)
            keys)
        (hot_lines seed 1 3000 @ hot_lines seed 2 3000))
    [ 1; 2; 3 ]

(* The socket streams keep the load generator's 70:30 MUL:DIV share. *)
let test_mul_div_share () =
  let share lines =
    let verb l = List.hd (String.split_on_char ' ' l) in
    let muls = List.length (List.filter (fun l -> verb l = "MUL") lines)
    and divs = List.length (List.filter (fun l -> verb l = "DIV") lines) in
    float_of_int muls /. float_of_int (muls + divs)
  in
  let near name want got =
    if Float.abs (got -. want) > 0.02 then Alcotest.failf "%s: MUL share %.3f, want %.2f" name got want
  in
  near "serve_hot" 0.7 (share (hot_lines 1 1 20_000));
  near "serve_miss" 0.7 (share (List.map snd (take 400 (Gen.miss_stream ~seed:1))))

let test_corpus_compiles () =
  List.iter
    (fun seed ->
      List.iter
        (fun (c : Gen.case) ->
          match Compile_work.compile c with
          | _ -> ()
          | exception Lower.Unsupported m -> Alcotest.failf "seed %d program %d: %s" seed c.id m)
        (Gen.corpus ~seed))
    [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* Planted failures                                                     *)

let reply = function Ok (payload, _) -> "OK " ^ payload | Error e -> Alcotest.fail e

(* Replace the first occurrence of [a] by [b]. *)
let plant s a b =
  match Check.find_sub s a with
  | Some i -> String.sub s 0 i ^ b ^ String.sub s (i + String.length a) (String.length s - i - String.length a)
  | None -> Alcotest.failf "nothing to corrupt in %S" s

let is_ok = function Ok _ -> true | Error _ -> false

let test_plan_replies () =
  let ok line r =
    match Check.check_plan_reply ~line r with Ok _ -> () | Error e -> Alcotest.fail e
  in
  let caught line r = Alcotest.(check bool) (line ^ " caught") false (is_ok (Check.check_plan_reply ~line r)) in
  let mul = reply (Plan.mul 625l) in
  ok "MUL 625" mul;
  caught "MUL 625" (plant mul "sh2add" "sh1add");
  caught "MUL 626" mul;
  let div = reply (Plan.div 7l) in
  ok "DIV 7" div;
  caught "DIV 7" (plant div "extru r29, 1, 31" "extru r29, 2, 30");
  let sdiv = reply (Plan.div (-9l)) in
  ok "DIV -9" sdiv;
  caught "DIV 9" sdiv;
  let big = reply (Plan.div 1_000_003l) in
  ok "DIV 1000003" big

let test_w64_replies () =
  let m = Hppa.Millicode.machine () in
  let check line r = is_ok (Check.check_w64_reply ~line r) in
  let w op sign x y = reply (Plan.w64 m ~fuel:1_000_000 op ~signed:(sign = "s") x y) in
  let line = "W64DIV s 1000000000000 -7" in
  let r = w Hppa_w64.Div "s" 1_000_000_000_000L (-7L) in
  Alcotest.(check bool) "W64DIV passes" true (check line r);
  Alcotest.(check bool) "W64DIV quotient caught" false (check line (plant r "q=-" "q=-1"));
  Alcotest.(check bool) "W64DIV cycles caught" false (check line (plant r "cycles=" "cycles=1"));
  let line = "W64MUL u -1 3" in
  let r = w Hppa_w64.Mul "u" (-1L) 3L in
  Alcotest.(check bool) "W64MUL passes" true (check line r);
  Alcotest.(check bool) "W64MUL caught" false (check line (plant r "hi=2" "hi=3"));
  let r = reply (Plan.divl m ~fuel:1_000_000 ~xhi:5L ~xlo:77L 1000L) in
  Alcotest.(check bool) "W64DIVL passes" true (check "W64DIVL 5 77 1000" r);
  Alcotest.(check bool) "W64DIVL caught" false (check "W64DIVL 5 77 1001" r)

let test_batch_lanes () =
  let scalar = function "MUL 3" -> Some "OK three" | "MUL 5" -> Some "OK five" | _ -> None in
  let check lines = is_ok (Check.check_batch_reply ~line:"MULB 3 5" ~scalar lines) in
  Alcotest.(check bool) "identical lanes pass" true (check [ "OK MULB k=2"; "OK three"; "OK five" ]);
  Alcotest.(check bool) "a differing lane is caught" false (check [ "OK MULB k=2"; "OK three"; "OK fivE" ]);
  Alcotest.(check bool) "a missing lane is caught" false (check [ "OK MULB k=2"; "OK three" ])

let test_kernel_results () =
  let m = Hppa.Millicode.machine () in
  List.iter
    (fun (k : Gen.kernel) ->
      Array.iteri
        (fun i args ->
          if i < 8 then begin
            let outcome = Machine.call m k.entry ~args in
            let get = Machine.get m in
            if not (is_ok (Check.check_kernel ~entry:k.entry ~args ~outcome ~get)) then
              Alcotest.failf "%s: correct result rejected" k.entry;
            let wrong r = Int32.add (get r) (if Reg.equal r Reg.ret0 then 1l else 0l) in
            if is_ok (Check.check_kernel ~entry:k.entry ~args ~outcome ~get:wrong) then
              Alcotest.failf "%s: planted wrong result accepted" k.entry
          end)
        k.args)
    (Gen.sim_kernels ~seed:1)

let test_program_results () =
  List.iter
    (fun (c : Gen.case) ->
      let prog = Compile_work.link (Compile_work.compile c).Compile_work.source in
      let m = Machine.create prog in
      List.iter
        (fun input ->
          let outcome = Machine.call m "f" ~args:(Check.program_args c.program input) in
          let get = Machine.get m in
          if not (is_ok (Check.check_program c input ~outcome ~get)) then
            Alcotest.failf "program %d: correct result rejected" c.id;
          let wrong r = Int32.logxor (get r) (if Reg.equal r Reg.ret1 || Reg.equal r Reg.ret0 then 4l else 0l) in
          if is_ok (Check.check_program c input ~outcome ~get:wrong) then
            Alcotest.failf "program %d: planted wrong result accepted" c.id)
        c.inputs)
    (Gen.corpus ~seed:2)

let () =
  Alcotest.run "perfbench"
    [
      ( "generators",
        [
          Alcotest.test_case "same seed, same inputs" `Quick test_deterministic;
          Alcotest.test_case "serve_miss keys never repeat" `Quick test_miss_keys_unique;
          Alcotest.test_case "serve_hot timed keys are warmed" `Quick test_hot_timed_subset_of_warmed;
          Alcotest.test_case "MUL:DIV share is 70:30" `Quick test_mul_div_share;
          Alcotest.test_case "compile corpus lowers" `Quick test_corpus_compiles;
        ] );
      ( "checks",
        [
          Alcotest.test_case "MUL/DIV replies" `Quick test_plan_replies;
          Alcotest.test_case "W64 replies" `Quick test_w64_replies;
          Alcotest.test_case "batch lanes" `Quick test_batch_lanes;
          Alcotest.test_case "kernel results" `Quick test_kernel_results;
          Alcotest.test_case "compiled programs" `Quick test_program_results;
        ] );
    ]
