(* The static verifier: the real millicode library must be clean under
   every analysis, the linear interpreter must certify every multiply
   plan, and each analysis must catch a seeded bad program. *)

module Word = Hppa_word.Word
module V = Hppa_verify
open Util
open Hppa

let pp_findings fs = Format.asprintf "%a" V.Findings.pp_list fs

let check_clean what findings =
  Alcotest.(check bool)
    (what ^ ": " ^ pp_findings findings)
    true (findings = [])

(* --- The library is lint-clean in both models. ------------------------- *)

let test_millicode_plain () = check_clean "plain" (Millicode.lint ())

let test_millicode_scheduled () =
  check_clean "scheduled" (Millicode.lint ~scheduled:true ())

(* The naive transform (every branch nullified) must also be hazard-free:
   its slots are all nops or annulled. *)
let test_millicode_naive () =
  let options =
    { V.Cfg.mode = V.Cfg.Delay_slot; blr_slots = Div_small.threshold }
  in
  match
    V.Driver.check_source ~options ~specs:Millicode.conventions
      ~entries:Millicode.entries
      (Delay.naive Millicode.source)
  with
  | Ok findings -> check_clean "naive" findings
  | Error msg -> Alcotest.fail msg

(* --- Multiply plans: lint + certification, plain and scheduled. -------- *)

let plan_cfg ~scheduled (plan : Mul_const.plan) =
  let src =
    if scheduled then Delay.schedule plan.source else plan.source
  in
  let options =
    if scheduled then V.Cfg.delay else V.Cfg.default
  in
  V.Cfg.make options (Program.resolve_exn src)

let certify_plan ~scheduled plan =
  let cfg = plan_cfg ~scheduled plan in
  let entry = Program.symbol_exn (V.Cfg.program cfg) plan.Mul_const.entry in
  V.Linear.certify cfg ~entry ~multiplier:plan.Mul_const.multiplier

let assert_certified ~overflow ~scheduled n =
  let plan = Mul_const.plan ~overflow n in
  match certify_plan ~scheduled plan with
  | V.Linear.Certified -> ()
  | v ->
      Alcotest.failf "%ld (overflow=%b, scheduled=%b): %a" n overflow scheduled
        V.Linear.pp_verdict v

(* Every plan for 0..4096, both models; overflow variants on a denser
   small range plus the special cases. *)
let test_certify_dense () =
  for n = 0 to 4096 do
    let n32 = Int32.of_int n in
    assert_certified ~overflow:false ~scheduled:false n32;
    assert_certified ~overflow:false ~scheduled:true n32
  done

let test_certify_overflow () =
  for n = 0 to 256 do
    let n32 = Int32.of_int n in
    assert_certified ~overflow:true ~scheduled:false n32;
    assert_certified ~overflow:true ~scheduled:true n32
  done;
  List.iter
    (fun n ->
      assert_certified ~overflow:true ~scheduled:false n;
      assert_certified ~overflow:true ~scheduled:true n)
    [ Int32.min_int; Int32.max_int; -1l; -625l; 0x4000_0000l ]

let certify_random =
  QCheck.Test.make ~name:"random multipliers certify (plain + scheduled)"
    ~count:200 arb_word (fun n ->
      assert_certified ~overflow:false ~scheduled:false n;
      assert_certified ~overflow:false ~scheduled:true n;
      true)

(* Plans also pass the full lint, as millicode-convention routines with a
   single-argument interface. *)
let lint_plan ~scheduled n =
  let plan = Mul_const.plan n in
  let spec =
    {
      V.Cfg.name = plan.entry;
      args = [ Reg.arg0 ];
      results = [ Reg.ret0 ];
      clobbers = V.Cfg.scratch;
    }
  in
  let src = if scheduled then Delay.schedule plan.source else plan.source in
  let options = if scheduled then V.Cfg.delay else V.Cfg.default in
  match
    V.Driver.check_source ~options ~specs:[ spec ] ~entries:[ plan.entry ] src
  with
  | Ok findings -> check_clean (Int32.to_string n) findings
  | Error msg -> Alcotest.fail msg

let test_lint_plans () =
  List.iter
    (fun n ->
      lint_plan ~scheduled:false n;
      lint_plan ~scheduled:true n)
    [ 0l; 1l; 10l; 625l; 1991l; -7l; -625l; Int32.max_int; Int32.min_int ]

(* --- Negative tests: each analysis catches a seeded bad program. ------- *)

let has check fs = List.exists (fun f -> f.V.Findings.check = check) fs

let check_of_bad what check src ~entries =
  match V.Driver.check_source ~entries src with
  | Ok findings ->
      Alcotest.(check bool)
        (what ^ ": " ^ pp_findings findings)
        true
        (has check findings)
  | Error msg -> Alcotest.fail msg

let ret = Emit.ret

let test_bad_use_before_def () =
  (* t2 is never written: the add consumes garbage. *)
  check_of_bad "use-before-def" V.Findings.Use_before_def
    [
      Program.Label "bad";
      Program.Insn (Emit.add Reg.arg0 Reg.t2 Reg.ret0);
      Program.Insn ret;
    ]
    ~entries:[ "bad" ]

let test_bad_psw () =
  (* addc with no carry-establishing instruction before it. *)
  check_of_bad "psw-before-def" V.Findings.Psw_before_def
    [
      Program.Label "bad";
      Program.Insn (Emit.addc Reg.arg0 Reg.arg1 Reg.ret0);
      Program.Insn ret;
    ]
    ~entries:[ "bad" ]

let test_bad_one_path_undefined () =
  (* ret0 defined on the fall-through path only: the taken path returns
     garbage. *)
  check_of_bad "one-path-undefined" V.Findings.Convention
    [
      Program.Label "bad";
      Program.Insn (Emit.comib Cond.Eq 0l Reg.arg0 "bad$out");
      Program.Insn (Emit.copy Reg.arg0 Reg.ret0);
      Program.Label "bad$out";
      Program.Insn ret;
    ]
    ~entries:[ "bad" ]

let test_bad_clobber () =
  (* r5 is callee-saved: writing it breaks every caller. *)
  check_of_bad "clobber" V.Findings.Convention
    [
      Program.Label "bad";
      Program.Insn (Emit.ldo 1l Reg.r0 (Reg.of_int 5));
      Program.Insn (Emit.copy Reg.arg0 Reg.ret0);
      Program.Insn ret;
    ]
    ~entries:[ "bad" ]

let test_bad_dead_write () =
  check_of_bad "dead-write" V.Findings.Dead_write
    [
      Program.Label "bad";
      Program.Insn (Emit.ldo 7l Reg.r0 Reg.t2);
      Program.Insn (Emit.copy Reg.arg0 Reg.ret0);
      Program.Insn ret;
    ]
    ~entries:[ "bad" ]

let test_bad_structure () =
  (* bv through a non-link register is unresolvable. *)
  check_of_bad "indirect" V.Findings.Structure
    [
      Program.Label "bad";
      Program.Insn (Emit.copy Reg.arg0 Reg.ret0);
      Program.Insn (Emit.bv Reg.r0 Reg.arg1);
    ]
    ~entries:[ "bad" ]

let delay_check src =
  match
    Result.map
      (fun p -> V.Hazards.check (V.Cfg.make V.Cfg.delay p))
      (Program.resolve src)
  with
  | Ok fs -> fs
  | Error msg -> Alcotest.fail msg

let test_bad_hazard_branch_in_slot () =
  let fs =
    delay_check
      [
        Program.Label "bad";
        Program.Insn (Insn.B { target = "bad"; n = false });
        Program.Insn (Insn.B { target = "bad"; n = true });
        Program.Insn (Insn.Nop);
      ]
  in
  Alcotest.(check bool)
    ("branch in slot: " ^ pp_findings fs)
    true
    (has V.Findings.Delay_hazard fs)

let test_bad_hazard_nullifier_before_branch () =
  (* A filled branch in a nullifier's shadow: annulment would skip the
     branch but its hoisted slot instruction would still execute. *)
  let fs =
    delay_check
      [
        Program.Label "bad";
        Program.Insn (Emit.comclr Cond.Eq Reg.arg0 Reg.arg1 Reg.r0);
        Program.Insn (Insn.B { target = "bad"; n = false });
        Program.Insn (Emit.copy Reg.arg0 Reg.ret0);
      ]
  in
  Alcotest.(check bool)
    ("nullifier before filled branch: " ^ pp_findings fs)
    true
    (has V.Findings.Delay_hazard fs)

let test_hazard_accepts_annulled_idiom () =
  (* The legitimate scheduled loop idiom: a nullifier immediately before
     a ,n branch must NOT be flagged. *)
  let fs =
    delay_check
      [
        Program.Label "ok";
        Program.Insn (Emit.extru ~cond:Cond.Neq Reg.arg0 ~pos:4 ~len:28 Reg.arg0);
        Program.Insn (Insn.B { target = "ok"; n = true });
        Program.Insn Insn.Nop;
      ]
  in
  check_clean "annulled idiom" fs

let test_bad_certify () =
  (* A correct routine checked against the wrong constant refutes. *)
  let plan = Mul_const.plan 10l in
  let cfg = plan_cfg ~scheduled:false plan in
  let entry = Program.symbol_exn (V.Cfg.program cfg) plan.entry in
  match V.Linear.certify cfg ~entry ~multiplier:12l with
  | V.Linear.Refuted _ -> ()
  | v -> Alcotest.failf "expected refutation, got %a" V.Linear.pp_verdict v

(* --- Division plans: the reciprocal certifier (§7). -------------------- *)

(* Plans may tail-call the general divide; link Div_gen so every entry
   resolves. *)
let div_prog (plan : Div_const.plan) =
  Program.resolve_exn
    (Program.concat [ plan.Div_const.source; Div_gen.source ])

let div_claim ?(op = `Div) ~signed d = { V.Reciprocal.op; signed; divisor = d }

let assert_div_certified what verdict =
  match verdict with
  | V.Reciprocal.Certified _ -> ()
  | v -> Alcotest.failf "%s: %a" what V.Reciprocal.pp_verdict v

let assert_div_refuted what verdict =
  match verdict with
  | V.Reciprocal.Refuted _ -> ()
  | v ->
      Alcotest.failf "%s: expected refutation, got %a" what
        V.Reciprocal.pp_verdict v

let certify_div_plan what (plan : Div_const.plan) claim =
  assert_div_certified what
    (V.Driver.certify_division (div_prog plan) ~entry:plan.Div_const.entry
       ~claim)

let test_div_certify_figure6 () =
  List.iter
    (fun (t : Div_magic.t) ->
      certify_div_plan
        (Printf.sprintf "figure6 y=%ld" t.Div_magic.y)
        (Div_const.plan_unsigned t.Div_magic.y)
        (div_claim ~signed:false t.Div_magic.y))
    (Div_magic.figure6 ())

(* Every emitted shape — reciprocal, power of two, even split, general
   fallback, remainder multiply-back, signed fixups — proves without a
   single sampled dividend. *)
let test_div_certify_sweep () =
  for d = 1 to 64 do
    let d32 = Int32.of_int d in
    List.iter
      (fun (what, plan, claim) -> certify_div_plan
          (Printf.sprintf "%s %d" what d) plan claim)
      [
        ("divu", Div_const.plan_unsigned d32, div_claim ~signed:false d32);
        ("divi", Div_const.plan_signed d32, div_claim ~signed:true d32);
        ( "divi-neg",
          Div_const.plan_signed (Int32.neg d32),
          div_claim ~signed:true (Int32.neg d32) );
        ( "remu",
          Div_const.plan_rem_unsigned d32,
          div_claim ~op:`Rem ~signed:false d32 );
        ( "remi",
          Div_const.plan_rem_signed d32,
          div_claim ~op:`Rem ~signed:true d32 );
      ]
  done

(* Corrupt one instruction of a correct plan; the certifier must find a
   concrete boundary dividend that disagrees, not just fail to prove. *)
let corrupt_first f src =
  let hit = ref false in
  let src' =
    List.map
      (function
        | Program.Insn i when not !hit -> (
            match f i with
            | Some i' ->
                hit := true;
                Program.Insn i'
            | None -> Program.Insn i)
        | x -> x)
      src
  in
  if not !hit then Alcotest.fail "corruption pattern matched nothing";
  src'

let certify_corrupted (plan : Div_const.plan) f claim =
  let prog =
    Program.resolve_exn
      (Program.concat [ corrupt_first f plan.Div_const.source; Div_gen.source ])
  in
  V.Driver.certify_division prog ~entry:plan.Div_const.entry ~claim

let test_div_certify_corrupted () =
  (* Off-by-one magic addend: the a*(x+1) increment becomes x+2. *)
  assert_div_refuted "divu7 addi 1 -> 2"
    (certify_corrupted (Div_const.plan_unsigned 7l)
       (function
         | Insn.Addi ({ imm = 1l; _ } as a) ->
             Some (Insn.Addi { a with imm = 2l })
         | _ -> None)
       (div_claim ~signed:false 7l));
  (* Short shift: the final right shift drops one bit too few (still a
     shift — pos + len stays 32 — but by the wrong amount). *)
  assert_div_refuted "divu9 short shift"
    (certify_corrupted (Div_const.plan_unsigned 9l)
       (function
         | Insn.Extr ({ signed = false; pos; len; _ } as e)
           when pos > 0 && pos + len = 32 ->
             Some (Insn.Extr { e with pos = pos - 1; len = len + 1 })
         | _ -> None)
       (div_claim ~signed:false 9l));
  (* A correct routine checked against the wrong divisor refutes. *)
  let plan = Div_const.plan_unsigned 7l in
  assert_div_refuted "divu7 claimed as /9"
    (V.Driver.certify_division (div_prog plan) ~entry:plan.Div_const.entry
       ~claim:(div_claim ~signed:false 9l))

(* The variable-divisor millicode: divide-step schema certificates. *)
let test_divstep_certified () =
  let prog = Program.resolve_exn Millicode.source in
  List.iter
    (fun (entry, signed, want_rem) ->
      match V.Driver.certify_divstep prog ~entry ~signed ~want_rem with
      | V.Reciprocal.Certified _ -> ()
      | v -> Alcotest.failf "%s: %a" entry V.Reciprocal.pp_verdict v)
    [
      ("divU", false, false);
      ("divI", true, false);
      ("remU", false, true);
      ("remI", true, true);
    ]

(* The §7 vectored dispatchers: total over the declared divisor set,
   every arm certified. *)
let test_dispatch_certified () =
  let options =
    { V.Cfg.mode = V.Cfg.Simple; blr_slots = Div_small.threshold }
  in
  let prog = Program.resolve_exn Millicode.source in
  List.iter
    (fun (entry, signed) ->
      match V.Driver.certify_dispatch ~options prog ~entry ~signed with
      | V.Reciprocal.Certified _ -> ()
      | v -> Alcotest.failf "%s: %a" entry V.Reciprocal.pp_verdict v)
    [ ("divU_small", false); ("divI_small", true) ]

(* An absent entry label is a structured Structure finding, not a bare
   Unknown. *)
let test_certify_findings_missing_entry () =
  let plan = Mul_const.plan 10l in
  let prog = Program.resolve_exn plan.Mul_const.source in
  let verdict, findings =
    V.Driver.certify_findings prog ~entry:"no_such_entry" ~multiplier:10l
  in
  (match verdict with
  | V.Linear.Unknown _ -> ()
  | v -> Alcotest.failf "expected unknown, got %a" V.Linear.pp_verdict v);
  match findings with
  | [ f ] ->
      Alcotest.(check bool) "structure finding" true
        (f.V.Findings.check = V.Findings.Structure);
      Alcotest.(check (option string))
        "names the entry" (Some "no_such_entry") f.V.Findings.routine
  | fs -> Alcotest.failf "expected one finding, got %s" (pp_findings fs)

(* --- The register-pair rule (W64 family). ------------------------------ *)

let pairs_findings ~spec src =
  match Program.resolve src with
  | Error msg -> Alcotest.fail msg
  | Ok prog ->
      let flat =
        {
          V.Cfg.name = "bad";
          args = [ Reg.arg0; Reg.arg1; Reg.arg2; Reg.arg3 ];
          results = [ Reg.ret0; Reg.ret1 ];
          clobbers = V.Cfg.scratch;
        }
      in
      V.Pairs.check (V.Cfg.make ~specs:[ flat ] V.Cfg.default prog) ~spec

let pair_spec ?(args = []) ?(results = []) () =
  { V.Pairs.name = "bad"; arg_pairs = args; result_pairs = results }

let check_pair_finding what fs =
  Alcotest.(check bool)
    (what ^ ": " ^ pp_findings fs)
    true (has V.Findings.Pair fs)

(* The real library's pair view is clean under the rule directly (the
   lint tests above run it as part of the full suite). *)
let test_pairs_millicode_clean () =
  let cfg =
    V.Cfg.make ~specs:Millicode.conventions V.Cfg.default
      (Millicode.resolved ())
  in
  List.iter
    (fun spec -> check_clean spec.V.Pairs.name (V.Pairs.check cfg ~spec))
    Millicode.pair_conventions

let test_pairs_bad_slot () =
  (* (arg1:arg2) spans two canonical slots: not a pair the convention
     allows. *)
  check_pair_finding "non-canonical slot"
    (pairs_findings
       ~spec:(pair_spec ~args:[ (Reg.arg1, Reg.arg2) ] ())
       [
         Program.Label "bad";
         Program.Insn (Emit.add Reg.arg1 Reg.arg2 Reg.ret0);
         Program.Insn ret;
       ])

let test_pairs_bad_result_path () =
  (* The taken path returns with only the high word of (ret0:ret1)
     defined. *)
  check_pair_finding "result half undefined on one path"
    (pairs_findings
       ~spec:
         (pair_spec
            ~args:[ (Reg.arg0, Reg.arg1) ]
            ~results:[ (Reg.ret0, Reg.ret1) ]
            ())
       [
         Program.Label "bad";
         Program.Insn (Emit.copy Reg.arg0 Reg.ret0);
         Program.Insn (Emit.comib Cond.Eq 0l Reg.arg1 "bad$out");
         Program.Insn (Emit.copy Reg.arg1 Reg.ret1);
         Program.Label "bad$out";
         Program.Insn ret;
       ])

let test_pairs_bad_unread_half () =
  (* A routine that never reads arg3 has almost certainly swapped the
     (hi:lo) order of its second operand. *)
  check_pair_finding "argument half never read"
    (pairs_findings
       ~spec:
         (pair_spec
            ~args:[ (Reg.arg0, Reg.arg1); (Reg.arg2, Reg.arg3) ]
            ~results:[ (Reg.ret0, Reg.ret1) ]
            ())
       [
         Program.Label "bad";
         Program.Insn (Emit.add Reg.arg0 Reg.arg2 Reg.ret0);
         Program.Insn (Emit.copy Reg.arg1 Reg.ret1);
         Program.Insn ret;
       ])

(* --- Body equivalence (the W64 certificate). --------------------------- *)

let w64_entries = [ "mulU128"; "mulI128"; "divU64w"; "divI64w"; "remU64w"; "remI64w" ]

(* The candidate the server runs is the library linked behind a wrapper
   at a different base address: prepending an unrelated routine shifts
   every target, which the walk's offset map must absorb. The walk also
   transits mul_final's vectored case table. *)
let test_body_equiv_certified () =
  let canonical = Millicode.library () in
  let shifted =
    Program.resolve_exn
      (Program.concat
         [
           [
             Program.Label "pad";
             Program.Insn (Emit.copy Reg.arg0 Reg.ret0);
             Program.Insn ret;
           ];
           Millicode.source;
         ])
  in
  List.iter
    (fun entry ->
      match V.Driver.certify_body ~canonical shifted ~entry with
      | V.Reciprocal.Certified c ->
          Alcotest.(check string)
            (entry ^ " kind") "body_equiv"
            (V.Certificate.kind_label c.V.Certificate.kind)
      | v -> Alcotest.failf "%s: %a" entry V.Reciprocal.pp_verdict v)
    w64_entries

(* Images are immutable, so the corrupted image is resolved from a
   corrupted source: the library with a [break 31] two instructions
   into [mulU128] (31 is the largest code {!Insn.validate} accepts). *)
let test_body_equiv_refuted () =
  let canonical = Millicode.library () in
  let addr =
    Program.symbol_exn (Program.library_image canonical) "mulU128" + 2
  in
  let spoiled = Insn.Break { code = 31 } in
  let src =
    snd
      (List.fold_left_map
         (fun a item ->
           match item with
           | Program.Label _ -> (a, item)
           | Program.Insn _ -> (a + 1, if a = addr then Program.Insn spoiled else item))
         0 Millicode.source)
  in
  let prog = Program.resolve_exn src in
  Alcotest.(check bool) "break 31 at mulU128+2" true
    (Program.insn prog addr = spoiled
    && Program.symbol prog "mulU128" = Some (addr - 2));
  match V.Driver.certify_body ~canonical prog ~entry:"mulU128" with
  | V.Reciprocal.Refuted _ -> ()
  | v -> Alcotest.failf "corrupted image: %a" V.Reciprocal.pp_verdict v

let test_body_equiv_unknown_entry () =
  let canonical = Millicode.library () in
  match
    V.Driver.certify_body ~canonical (Millicode.resolved ())
      ~entry:"no_such_entry"
  with
  | V.Reciprocal.Unknown _ -> ()
  | v -> Alcotest.failf "missing entry: %a" V.Reciprocal.pp_verdict v

(* --- Insn.reads contract pin (see insn.mli). --------------------------- *)

let test_reads_duplicates () =
  let reg = Alcotest.testable Reg.pp Reg.equal in
  Alcotest.(check (list reg))
    "add r5, r5, t lists r5 twice" [ Reg.of_int 5; Reg.of_int 5 ]
    (Insn.reads (Emit.add (Reg.of_int 5) (Reg.of_int 5) Reg.t2));
  Alcotest.(check (list reg))
    "reads_distinct dedupes, keeping order" [ Reg.of_int 5 ]
    (Insn.reads_distinct (Emit.add (Reg.of_int 5) (Reg.of_int 5) Reg.t2));
  Alcotest.(check (list reg))
    "bv r0(rp) reads both operand positions" [ Reg.r0; Reg.rp ]
    (Insn.reads Emit.ret);
  Alcotest.(check (list reg))
    "distinct preserves first-occurrence order" [ Reg.arg0; Reg.arg1 ]
    (Insn.reads_distinct (Emit.add Reg.arg0 Reg.arg1 Reg.ret0))

let suite =
  [
    ( "verify.millicode",
      [
        Alcotest.test_case "plain image is clean" `Quick test_millicode_plain;
        Alcotest.test_case "scheduled image is clean" `Quick
          test_millicode_scheduled;
        Alcotest.test_case "naive image is clean" `Quick test_millicode_naive;
      ] );
    ( "verify.certify",
      [
        Alcotest.test_case "plans 0..4096 certify (both models)" `Slow
          test_certify_dense;
        Alcotest.test_case "overflow plans certify" `Quick
          test_certify_overflow;
        Alcotest.test_case "representative plans pass the full lint" `Quick
          test_lint_plans;
      ] );
    qsuite "verify.certify.random" [ certify_random ];
    ( "verify.certify.div",
      [
        Alcotest.test_case "figure6 rows certify" `Quick
          test_div_certify_figure6;
        Alcotest.test_case "divisors 1..64, all five shapes" `Slow
          test_div_certify_sweep;
        Alcotest.test_case "corrupted magic constants refuted" `Quick
          test_div_certify_corrupted;
        Alcotest.test_case "divide-step millicode certifies" `Quick
          test_divstep_certified;
        Alcotest.test_case "small-divisor dispatch certifies" `Quick
          test_dispatch_certified;
        Alcotest.test_case "missing entry is a structured finding" `Quick
          test_certify_findings_missing_entry;
      ] );
    ( "verify.negative",
      [
        Alcotest.test_case "use before def" `Quick test_bad_use_before_def;
        Alcotest.test_case "carry before def" `Quick test_bad_psw;
        Alcotest.test_case "result undefined on one path" `Quick
          test_bad_one_path_undefined;
        Alcotest.test_case "callee-saved clobber" `Quick test_bad_clobber;
        Alcotest.test_case "dead write" `Quick test_bad_dead_write;
        Alcotest.test_case "indirect branch" `Quick test_bad_structure;
        Alcotest.test_case "branch in delay slot" `Quick
          test_bad_hazard_branch_in_slot;
        Alcotest.test_case "nullifier before filled branch" `Quick
          test_bad_hazard_nullifier_before_branch;
        Alcotest.test_case "annulled-branch idiom accepted" `Quick
          test_hazard_accepts_annulled_idiom;
        Alcotest.test_case "wrong multiplier refuted" `Quick test_bad_certify;
      ] );
    ( "verify.pairs",
      [
        Alcotest.test_case "millicode pair view is clean" `Quick
          test_pairs_millicode_clean;
        Alcotest.test_case "non-canonical pair slot" `Quick
          test_pairs_bad_slot;
        Alcotest.test_case "result half undefined on one path" `Quick
          test_pairs_bad_result_path;
        Alcotest.test_case "argument half never read" `Quick
          test_pairs_bad_unread_half;
      ] );
    ( "verify.body_equiv",
      [
        Alcotest.test_case "w64 entries certify against the library" `Quick
          test_body_equiv_certified;
        Alcotest.test_case "corrupted body refuted" `Quick
          test_body_equiv_refuted;
        Alcotest.test_case "missing entry is unknown" `Quick
          test_body_equiv_unknown_entry;
      ] );
    ( "verify.insn",
      [
        Alcotest.test_case "reads enumerates operand positions" `Quick
          test_reads_duplicates;
      ] );
  ]
