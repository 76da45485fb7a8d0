(* Tests for the ISA layer: registers, conditions, assembler, binary codec
   and program resolution. *)

module Word = Hppa_word.Word
open Util

(* ------------------------------------------------------------------ *)
(* Registers and conditions                                            *)

let test_reg_names () =
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Reg.name r ^ " roundtrips") true
        (match Reg.of_name (Reg.name r) with
        | Some r' -> Reg.equal r r'
        | None -> false))
    Reg.all;
  Alcotest.(check bool) "alias rp" true (Reg.of_name "rp" = Some Reg.rp);
  Alcotest.(check bool) "alias arg0 = r26" true (Reg.of_name "arg0" = Some (Reg.of_int 26));
  Alcotest.(check bool) "bad name" true (Reg.of_name "r32" = None);
  Alcotest.(check bool) "bad name 2" true (Reg.of_name "x7" = None)

let test_reg_bounds () =
  Alcotest.check_raises "of_int 32" (Invalid_argument "Reg.of_int: register out of range")
    (fun () -> ignore (Reg.of_int 32));
  Alcotest.check_raises "of_int -1" (Invalid_argument "Reg.of_int: register out of range")
    (fun () -> ignore (Reg.of_int (-1)))

let test_cond_roundtrip () =
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Cond.to_string c ^ " roundtrips") true
        (Cond.of_string (Cond.to_string c) = Some c))
    Cond.all

let test_cond_eval () =
  let t name c a b expect =
    Alcotest.(check bool) name expect (Cond.eval c a b)
  in
  t "eq" Cond.Eq 5l 5l true;
  t "signed lt" Cond.Lt (-1l) 0l true;
  t "unsigned lt: -1 is huge" Cond.Ult (-1l) 0l false;
  t "unsigned lt" Cond.Ult 0l (-1l) true;
  t "odd" Cond.Odd 7l 0l true;
  t "odd of difference" Cond.Odd 7l 2l true;
  t "even" Cond.Even 6l 0l true;
  t "never" Cond.Never 1l 1l false;
  t "always" Cond.Always 1l 2l true

let prop_cond_negate =
  QCheck.Test.make ~name:"negate complements eval" ~count:1000
    (QCheck.triple (QCheck.oneofl Cond.all) arb_word arb_word)
    (fun (c, a, b) -> Cond.eval (Cond.negate c) a b = not (Cond.eval c a b))

(* ------------------------------------------------------------------ *)
(* Random instruction generator (valid instructions only)              *)

let gen_reg = QCheck.Gen.map Reg.of_int (QCheck.Gen.int_bound 31)
let gen_cond = QCheck.Gen.oneofl Cond.all

let gen_imm bits =
  QCheck.Gen.map
    (fun i -> Int32.of_int i)
    (QCheck.Gen.int_range (-(1 lsl (bits - 1))) ((1 lsl (bits - 1)) - 1))

let gen_field =
  QCheck.Gen.(
    int_range 0 31 >>= fun pos ->
    int_range 1 (32 - pos) >>= fun len -> return (pos, len))

let gen_insn : string Insn.t QCheck.Gen.t =
  let open QCheck.Gen in
  let lbl = oneofl [ "alpha"; "beta"; "gamma" ] in
  let alu_op =
    oneofl
      [ Insn.Add; Insn.Addc; Insn.Sub; Insn.Subb; Insn.Shadd 1; Insn.Shadd 2;
        Insn.Shadd 3; Insn.And; Insn.Or; Insn.Xor; Insn.Andcm ]
  in
  frequency
    [
      ( 4,
        map2
          (fun (op, trap_ov) (a, b, t) -> Insn.Alu { op; a; b; t; trap_ov })
          (pair alu_op bool)
          (triple gen_reg gen_reg gen_reg) );
      (1, map (fun (a, b, t) -> Insn.Ds { a; b; t }) (triple gen_reg gen_reg gen_reg));
      ( 2,
        map2
          (fun (imm, ov) (a, t) -> Insn.Addi { imm; a; t; trap_ov = ov })
          (pair (gen_imm 14) bool) (pair gen_reg gen_reg) );
      ( 1,
        map2
          (fun (imm, ov) (a, t) -> Insn.Subi { imm; a; t; trap_ov = ov })
          (pair (gen_imm 11) bool) (pair gen_reg gen_reg) );
      ( 1,
        map2
          (fun cond (a, b, t) -> Insn.Comclr { cond; a; b; t })
          gen_cond (triple gen_reg gen_reg gen_reg) );
      ( 1,
        map3
          (fun cond imm (a, t) -> Insn.Comiclr { cond; imm; a; t })
          gen_cond (gen_imm 11) (pair gen_reg gen_reg) );
      ( 2,
        map3
          (fun (signed, cond) (pos, len) (r, t) ->
            Insn.Extr { signed; r; pos; len; t; cond })
          (pair bool gen_cond) gen_field (pair gen_reg gen_reg) );
      ( 1,
        map2
          (fun (pos, len) (r, t) -> Insn.Zdep { r; pos; len; t })
          gen_field (pair gen_reg gen_reg) );
      ( 1,
        map2
          (fun sa (a, b, t) -> Insn.Shd { a; b; sa; t })
          (int_range 0 31) (triple gen_reg gen_reg gen_reg) );
      ( 1,
        map2
          (fun imm t -> Insn.Ldil { imm = Int32.shift_left imm 11; t })
          (gen_imm 21) gen_reg );
      ( 1,
        map2
          (fun imm (base, t) -> Insn.Ldo { imm; base; t })
          (gen_imm 14) (pair gen_reg gen_reg) );
      ( 1,
        map2
          (fun disp (base, t) -> Insn.Ldw { disp; base; t })
          (gen_imm 14) (pair gen_reg gen_reg) );
      ( 1,
        map2
          (fun disp (base, r) -> Insn.Stw { r; disp; base })
          (gen_imm 14) (pair gen_reg gen_reg) );
      (1, map2 (fun target t -> Insn.Ldaddr { target; t }) lbl gen_reg);
      ( 2,
        map3
          (fun (cond, n) (a, b) target -> Insn.Comb { cond; a; b; target; n })
          (pair gen_cond bool) (pair gen_reg gen_reg) lbl );
      ( 1,
        map3
          (fun (cond, n) (imm, a) target -> Insn.Comib { cond; imm; a; target; n })
          (pair gen_cond bool) (pair (gen_imm 5) gen_reg) lbl );
      ( 1,
        map3
          (fun (cond, n) (imm, a) target -> Insn.Addib { cond; imm; a; target; n })
          (pair gen_cond bool) (pair (gen_imm 5) gen_reg) lbl );
      (1, map2 (fun target n -> Insn.B { target; n }) lbl bool);
      (1, map3 (fun target t n -> Insn.Bl { target; t; n }) lbl gen_reg bool);
      (1, map3 (fun x t n -> Insn.Blr { x; t; n }) gen_reg gen_reg bool);
      (1, map3 (fun x base n -> Insn.Bv { x; base; n }) gen_reg gen_reg bool);
      (1, map (fun code -> Insn.Break { code }) (int_bound 31));
      (1, return Insn.Nop);
    ]

let arb_insn =
  QCheck.make
    ~print:(fun i -> Format.asprintf "%a" (Insn.pp Format.pp_print_string) i)
    gen_insn

(* Wrap a random instruction list into a resolvable program: labels first
   so every symbolic target exists. *)
let wrap insns =
  Program.Label "alpha" :: Program.Label "beta" :: Program.Label "gamma"
  :: List.map (fun i -> Program.Insn i) insns

(* ------------------------------------------------------------------ *)
(* Reply text: the Format-free printer prints what [Insn.pp] prints     *)

(* The plan service's one-line form of [pp]'s text. *)
let squash s =
  String.trim (String.map (function '\n' | '\r' | '\t' -> ' ' | c -> c) s)

let pp_text i = squash (Format.asprintf "%a" (Insn.pp Format.pp_print_string) i)

let test_to_string_millicode () =
  let n = ref 0 in
  List.iter
    (function
      | Program.Label _ -> ()
      | Program.Insn i ->
          incr n;
          Alcotest.(check string)
            (pp_text i) (pp_text i) (Insn.to_string Fun.id i))
    Hppa.Millicode.source;
  Alcotest.(check bool) "library instructions" true (!n > 1000)

let prop_to_string =
  QCheck.Test.make ~name:"to_string = squashed pp, every constructor"
    ~count:3000 arb_insn (fun i -> Insn.to_string Fun.id i = pp_text i)

let prop_asm_roundtrip =
  QCheck.Test.make ~name:"print/parse roundtrip" ~count:500
    (QCheck.list_of_size (QCheck.Gen.int_range 1 20) arb_insn)
    (fun insns ->
      let src = wrap insns in
      let text = Asm.print src in
      match Asm.parse text with
      | Error msg -> QCheck.Test.fail_reportf "reparse failed: %s\n%s" msg text
      | Ok src' -> (
          (* Compare resolved images (the parser may expand pseudos). *)
          match (Program.resolve src, Program.resolve src') with
          | Ok p, Ok p' ->
              let c = Program.code p and c' = Program.code p' in
              Array.length c = Array.length c'
              && Array.for_all2 (Insn.equal Int.equal) c c'
          | _, _ -> false))

let prop_encode_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip" ~count:500
    (QCheck.list_of_size (QCheck.Gen.int_range 1 20) arb_insn)
    (fun insns ->
      match Program.resolve (wrap insns) with
      | Error _ -> false
      | Ok p -> (
          match Encode.encode_fetch (Program.length p) (Program.insn p) with
          | Error msg -> QCheck.Test.fail_reportf "encode failed: %s" msg
          | Ok words -> (
              match Encode.decode_program words with
              | Error msg -> QCheck.Test.fail_reportf "decode failed: %s" msg
              | Ok insns' -> Array.for_all2 (Insn.equal Int.equal) (Program.code p) insns')))

(* ------------------------------------------------------------------ *)
(* Hand-written assembler cases                                        *)

let test_parse_basic () =
  let src =
    Asm.parse_exn
      {|
start:  add r1, r2, r3          ; comment
        sh2add,o arg0, ret0, ret0
        comb,<< r5, r6, start
        ldo 42(r0), r7
        ldi 0x12345678, r8      # expands to ldil + ldo
        bv r0(rp)
|}
  in
  let p = Program.resolve_exn src in
  Alcotest.(check int) "ldi expanded" 7 (Program.length p);
  Alcotest.(check bool) "start at 0" true (Program.symbol p "start" = Some 0)

let test_parse_errors () =
  let bad text =
    match Asm.parse text with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "unknown mnemonic" true (bad "frobnicate r1, r2");
  Alcotest.(check bool) "bad register" true (bad "add r1, r99, r2");
  Alcotest.(check bool) "missing cond" true (bad "comb r1, r2, somewhere");
  Alcotest.(check bool) "bad operand count" true (bad "add r1, r2");
  Alcotest.(check bool) "unknown modifier" true (bad "add,q r1, r2, r3")

(* Every parse error names the 1-based source line; operand-shape errors
   also quote the offending token. *)
let test_parse_error_messages () =
  let error_of text =
    match Asm.parse text with
    | Ok _ -> Alcotest.failf "%S unexpectedly parsed" text
    | Error msg -> msg
  in
  let check_contains text needle =
    let msg = error_of text in
    let n = String.length needle and h = String.length msg in
    let rec go i =
      i + n <= h && (String.sub msg i n = needle || go (i + 1))
    in
    if not (go 0) then
      Alcotest.failf "error for %S is %S; expected it to contain %S" text msg
        needle
  in
  (* line numbers are 1-based and count blank/comment lines *)
  check_contains "add r1, 42, r3" "line 1:";
  check_contains "nop\n; fine\nadd r1, 42, r3" "line 3:";
  (* the offending token is quoted *)
  check_contains "add r1, 42, r3" "expected a register, got \"42\"";
  check_contains "addi r7, r1, r2" "expected an immediate, got \"r7\"";
  check_contains "b 123" "expected a label, got \"123\"";
  check_contains "stw 5(r1), 0(r2)" "expected a register, got \"5(r1)\""

let test_parse_error_messages_ok_cases () =
  (* Messages stay actionable for non-operand failures too. *)
  let error_of text =
    match Asm.parse text with
    | Ok _ -> Alcotest.failf "%S unexpectedly parsed" text
    | Error msg -> msg
  in
  let msg = error_of "nop\nfrobnicate r1, r2" in
  Alcotest.(check bool) "names line 2" true
    (String.length msg >= 7 && String.sub msg 0 7 = "line 2:")

let test_resolve_errors () =
  let dup = [ Program.Label "a"; Program.Label "a" ] in
  (match Program.resolve dup with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate label accepted");
  let undef = [ Program.Insn (Emit.b "nowhere") ] in
  (match Program.resolve undef with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "undefined target accepted");
  let bad_imm = [ Program.Insn (Emit.addi 100000l Reg.r0 Reg.r0) ] in
  match Program.resolve bad_imm with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-range immediate accepted"

(* A recorded library at the end of a program is spliced, not resolved
   again; the image must be the one a single pass over a structural
   copy gives (fresh cells, so nothing in it is a recorded library). *)
let full_pass src = Program.resolve (List.map Fun.id src)

let symbols p =
  let l = ref [] in
  Program.iter_symbols (fun s a -> l := (s, a) :: !l) p;
  List.sort compare !l

(* Every accessor of [actual] reads what it reads of [expected]. *)
let same_image name (expected : (Program.resolved, string) result) actual =
  match (expected, actual) with
  | Error e, Error a -> Alcotest.(check string) (name ^ ": error") e a
  | Ok e, Ok a ->
      let n = Program.length e in
      Alcotest.(check int) (name ^ ": length") n (Program.length a);
      for addr = 0 to n - 1 do
        if Program.insn e addr <> Program.insn a addr then
          Alcotest.failf "%s: instruction %d differs" name addr
      done;
      if Program.code e <> Program.code a then
        Alcotest.failf "%s: code differs" name;
      Alcotest.(check (list (pair string int)))
        (name ^ ": symbols") (symbols e) (symbols a);
      List.iter
        (fun (l, _) ->
          Alcotest.(check (option int))
            (name ^ ": symbol " ^ l) (Program.symbol e l) (Program.symbol a l))
        (symbols e);
      Alcotest.(check (option int))
        (name ^ ": absent symbol") None (Program.symbol a "no such label");
      let names p = List.init (n + 1) (fun addr -> (addr, Program.name_at p addr)) in
      Alcotest.(check (list (pair int (option string))))
        (name ^ ": names") (names e) (names a)
  | Ok _, Error a -> Alcotest.failf "%s: spliced link fails: %s" name a
  | Error e, Ok _ -> Alcotest.failf "%s: spliced link accepts (%s)" name e

(* [resolve_before] gives the head of the whole image's code, or the
   whole image's error, without resolving the libraries again. *)
let test_resolve_before () =
  let open Program in
  let lib1 =
    [
      Label "l1"; Insn (Emit.b "l1b"); Label "l1b"; Insn Insn.Nop;
      Label "shared";
    ]
  and lib2 = [ Label "l2"; Insn (Emit.b "l2"); Insn (Emit.b "l2") ] in
  let libs =
    List.map
      (fun src ->
        match library src with
        | Ok lib -> lib
        | Error e -> Alcotest.failf "library: %s" e)
      [ lib1; lib2 ]
  in
  let check name src libs lib_srcs =
    let own =
      List.length (List.filter (function Insn _ -> true | Label _ -> false) src)
    in
    let whole =
      Result.map
        (fun p -> List.init own (Program.insn p))
        (full_pass (concat (src :: lib_srcs)))
    and head = Result.map Array.to_list (resolve_before src libs) in
    let code =
      Alcotest.testable
        Fmt.(result ~ok:(Dump.list (Insn.pp Format.pp_print_int)) ~error:string)
        ( = )
    in
    Alcotest.check code name whole head
  in
  let both name src = check name src libs [ lib1; lib2 ] in
  both "calls into both libraries"
    [
      Label "main"; Insn (Emit.b "l2"); Insn (Emit.bl "l1b" Reg.mrp);
      Insn (Emit.b "main");
    ];
  both "own duplicate" [ Label "x"; Insn Insn.Nop; Label "x" ];
  both "clash with a library, named in the library's order"
    [ Label "shared"; Insn Insn.Nop; Label "l1" ];
  both "clash with the second library" [ Label "l2"; Insn (Emit.b "l2") ];
  both "undefined label" [ Insn (Emit.b "l1"); Insn (Emit.b "nowhere") ];
  both "invalid before undefined"
    [ Insn (Emit.b "nowhere"); Insn (Emit.addi 100000l Reg.r0 Reg.r0) ];
  check "library clash between libraries" [ Insn (Emit.b "l1") ]
    (libs @ [ List.hd libs ])
    [ lib1; lib2; lib1 ];
  check "no libraries" [ Label "a"; Insn (Emit.b "a") ] [] []

let recorded lib_src =
  match Program.library lib_src with
  | Ok lib -> lib
  | Error e -> Alcotest.failf "library: %s" e

(* [head] linked before [lib_src]: spliced, and equal to the full pass. *)
let check_splice name head lib_src =
  ignore (recorded lib_src);
  let src = Program.concat [ head; lib_src ] in
  Alcotest.(check (option int))
    (name ^ ": splice point") (Some (List.length head))
    (Program.library_suffix src);
  same_image name (full_pass src) (Program.resolve src);
  Program.resolve src

let test_splice () =
  let open Program in
  List.iter
    (fun (lib_name, lib_src, lib_label) ->
      let check name head = ignore (check_splice (lib_name ^ ", " ^ name) head lib_src) in
      check "empty head" [];
      check "one instruction" [ Insn Insn.Nop ];
      List.iter
        (fun (name, head) -> check ("golden " ^ name) head)
        (Test_golden.lowerings ());
      check "call into the library" [ Label "main"; Insn (Emit.b lib_label) ];
      check "head defines a library label" [ Label lib_label; Insn Insn.Nop ];
      check "head defines two library labels"
        [ Label "remU"; Insn Insn.Nop; Label "divU" ];
      check "undefined label" [ Insn (Emit.b lib_label); Insn (Emit.b "nowhere") ];
      check "invalid instruction"
        [ Insn Insn.Nop; Insn Insn.Nop; Insn (Emit.addi 100000l Reg.r0 Reg.r0) ];
      check "own duplicate" [ Label "x"; Insn Insn.Nop; Label "x" ];
      (* A label at the library's first address names that address. *)
      let head = [ Label "main"; Insn (Emit.b lib_label); Label "at_lib" ] in
      (match check_splice (lib_name ^ ", trailing label") head lib_src with
      | Ok p ->
          Alcotest.(check (option string)) "trailing label names the address"
            (Some "at_lib") (Program.name_at p 1)
      | Error e -> Alcotest.failf "trailing label: %s" e);
      (* A structural copy is not the recorded source: one whole pass. *)
      let copy = List.map Fun.id lib_src in
      Alcotest.(check (option int))
        (lib_name ^ ": a copy is not spliced") None (library_suffix copy);
      same_image (lib_name ^ ", copy") (resolve lib_src) (resolve copy))
    [
      ("millicode", Hppa.Millicode.source, "mulI");
      ("div_gen", Hppa.Div_gen.source, "divU");
    ]

(* Whatever a caller writes into the code an image hands out, that
   image and later images are unchanged. *)
let test_image_isolation () =
  let spoil (p : Program.resolved) =
    let code = Program.code p in
    Array.fill code 0 (Array.length code) (Insn.Break { code = 7 })
  in
  let expected = full_pass Hppa.Millicode.source in
  let head = [ Program.Label "main"; Program.Insn (Emit.b "divU") ] in
  let linked = Program.concat [ head; Hppa.Millicode.source ] in
  let expected_linked = full_pass linked in
  for round = 1 to 2 do
    let name what = Printf.sprintf "%s, round %d" what round in
    spoil (Hppa.Millicode.resolved ());
    same_image (name "resolved ()") expected (Ok (Hppa.Millicode.resolved ()));
    let p = Program.resolve_exn linked in
    spoil p;
    same_image (name "spoiled image") expected_linked (Ok p);
    same_image (name "linked") expected_linked (Program.resolve linked);
    spoil (Hppa.Millicode.link head);
    same_image (name "Millicode.link") expected_linked
      (Ok (Hppa.Millicode.link head));
    same_image (name "library image") expected
      (Ok (Program.library_image (Hppa.Millicode.library ())))
  done

(* Links of different heads read the library from the library itself:
   every library instruction without a target is the very value the
   library's image holds, wherever the head puts it. *)
let test_links_share_library () =
  let lib = Program.library_image (Hppa.Millicode.library ()) in
  Alcotest.(check bool) "resolved () is the library image" true
    (Hppa.Millicode.resolved () == lib);
  let link head = Program.resolve_exn (Program.concat [ head; Hppa.Millicode.source ]) in
  let p1 = link [ Program.Label "main"; Program.Insn (Emit.b "divU") ]
  and p2 =
    link
      [
        Program.Insn Insn.Nop; Program.Insn Insn.Nop; Program.Label "f";
        Program.Insn (Emit.bl "mulI" Reg.mrp);
      ]
  in
  let shared = ref 0 in
  for a = 0 to Program.length lib - 1 do
    let i = Program.insn lib a in
    if Insn.target i = None then begin
      if not (Program.insn p1 (1 + a) == i && Program.insn p2 (3 + a) == i) then
        Alcotest.failf "library instruction %d is not shared" a;
      incr shared
    end
  done;
  Alcotest.(check bool) "most of the library is shared" true
    (!shared > Program.length lib / 2)

(* A link allocates for its head only: nothing library-sized, so
   nothing in the major heap. [Gc.counters]' major count is current;
   [Gc.quick_stat]'s lags until the next minor collection on OCaml 5. *)
(* A recorded library carries its encoded words and its fall-through
   marks: the words are the image's encoding as little-endian bytes,
   the marks are clear at every address a label or a branch reaches, and
   each is computed once: a second read is the same value. *)
let test_library_record () =
  List.iter
    (fun (name, src) ->
      let lib = recorded src in
      let img = Program.library_image lib in
      let n = Program.length img in
      let expected =
        match Encode.encode_fetch n (Program.insn img) with
        | Error e -> Alcotest.failf "%s: encode: %s" name e
        | Ok words -> (
            match Encode.decode_program words with
            | Error e -> Alcotest.failf "%s: decode: %s" name e
            | Ok insns ->
                Alcotest.(check bool) (name ^ ": decodes back") true
                  (Array.for_all2 (Insn.equal Int.equal) (Program.code img) insns);
                let b = Bytes.create (4 * n) in
                Array.iteri (fun i w -> Bytes.set_int32_le b (4 * i) w) words;
                Bytes.to_string b)
      in
      (match Program.library_words lib with
      | Ok w -> Alcotest.(check string) (name ^ ": words") expected w
      | Error e -> Alcotest.failf "%s: words: %s" name e);
      Alcotest.(check bool) (name ^ ": words read once") true
        (Program.library_words lib == Program.library_words lib);
      Alcotest.(check bool) (name ^ ": a second library call") true
        (Program.library_words (recorded src) == Program.library_words lib);
      let reached = Array.make n false in
      Program.iter_symbols (fun _ a -> reached.(a) <- true) img;
      for a = 0 to n - 1 do
        Option.iter (fun t -> if t < n then reached.(t) <- true)
          (Insn.target (Program.insn img a))
      done;
      Array.iteri
        (fun a r ->
          if r && Program.fall_through_only lib a then
            Alcotest.failf "%s: +%d is reached, not only by fall-through" name a)
        reached;
      Alcotest.(check bool) (name ^ ": some address is fall-through only") true
        (List.exists (Program.fall_through_only lib) (List.init n Fun.id));
      Alcotest.(check bool) (name ^ ": outside the image") false
        (Program.fall_through_only lib (-1) || Program.fall_through_only lib n))
    [ ("millicode", Hppa.Millicode.source); ("div_gen", Hppa.Div_gen.source) ]

let test_link_allocation () =
  let head = [ Program.Label "main"; Program.Insn (Emit.b "divU"); Program.Insn Insn.Nop ] in
  let link () = Program.resolve_exn (Program.concat [ head; Hppa.Millicode.source ]) in
  ignore (link ());
  let major () =
    let _, _, m = Gc.counters () in
    m
  in
  Gc.minor ();
  let before = major () in
  let p = link () in
  let after = major () in
  Alcotest.(check (float 0.)) "major-heap words of a link" 0. (after -. before);
  Alcotest.(check int) "linked length"
    (2 + Program.length (Hppa.Millicode.resolved ()))
    (Program.length (Sys.opaque_identity p))

let test_concat () =
  let open Program in
  let units =
    [
      [ Label "a"; Insn Insn.Nop ]; []; [ Insn (Emit.b "a") ]; [ Label "b" ];
      [ Insn Insn.Nop; Insn Insn.Nop ];
    ]
  in
  let rec prefixes = function
    | [] -> [ [] ]
    | u :: rest -> [] :: List.map (fun p -> u :: p) (prefixes rest)
  in
  let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
  List.iter
    (fun us ->
      let c = concat us in
      if c <> List.concat us then Alcotest.fail "concat <> List.concat";
      match List.rev us with
      | [] -> ()
      | last :: rest ->
          let before = List.fold_left (fun n u -> n + List.length u) 0 rest in
          if not (drop before c == last) then
            Alcotest.failf "tail of a %d-unit concat is not its last unit"
              (List.length us))
    (prefixes units
    @ [ [ Hppa.Div_gen.source ]; [ List.hd units; Hppa.Millicode.source ] ])

(* The split points of the millicode whose suffix resolves on its own:
   every target it references is a label it defines. *)
let self_contained =
  let items = Array.of_list Hppa.Millicode.source in
  let n = Array.length items in
  let ok = Array.make n false in
  let defined = Hashtbl.create 256 and missing = Hashtbl.create 256 in
  for k = n - 1 downto 0 do
    (match items.(k) with
    | Program.Label l ->
        Hashtbl.replace defined l ();
        Hashtbl.remove missing l
    | Program.Insn i -> (
        match Insn.target i with
        | Some l when not (Hashtbl.mem defined l) -> Hashtbl.replace missing l ()
        | Some _ | None -> ()));
    ok.(k) <- Hashtbl.length missing = 0
  done;
  ok

let prop_splice_split =
  let n = Array.length self_contained in
  let points =
    Array.of_list (List.filter (fun k -> self_contained.(k)) (List.init n Fun.id))
  in
  QCheck.Test.make ~name:"millicode split into head + recorded tail" ~count:100
    (QCheck.make ~print:string_of_int
       QCheck.Gen.(frequency [ (3, oneofa points); (1, int_bound (n - 1)) ]))
    (fun k ->
      let head = List.filteri (fun i _ -> i < k) Hppa.Millicode.source in
      let rec suffix k l = if k = 0 then l else suffix (k - 1) (List.tl l) in
      let tail = suffix k Hppa.Millicode.source in
      let src = Program.concat [ head; tail ] in
      let name = Printf.sprintf "split at %d" k in
      (match Program.library tail with
      | Ok _ ->
          Alcotest.(check bool) (name ^ ": tail is self-contained") true
            self_contained.(k);
          Alcotest.(check (option int)) (name ^ ": splice point") (Some k)
            (Program.library_suffix src)
      | Error e ->
          if self_contained.(k) then
            Alcotest.failf "%s: self-contained tail fails alone: %s" name e);
      same_image name (full_pass src) (Program.resolve src);
      true)

let test_validate_ranges () =
  let bad i =
    match Insn.validate i with Ok () -> false | Error _ -> true
  in
  Alcotest.(check bool) "comib imm 16" true
    (bad (Emit.comib Cond.Eq 16l Reg.r0 "x"));
  Alcotest.(check bool) "comib imm -17" true
    (bad (Emit.comib Cond.Eq (-17l) Reg.r0 "x"));
  Alcotest.(check bool) "comib imm 15 ok" false
    (bad (Emit.comib Cond.Eq 15l Reg.r0 "x"));
  Alcotest.(check bool) "ldil low bits" true
    (bad (Emit.ldil 0x1234l Reg.r0));
  Alcotest.(check bool) "subi 11-bit" true (bad (Emit.subi 1024l Reg.r0 Reg.r0))

let test_branch_displacement_limit () =
  (* A conditional branch over > 2^11 instructions must fail to encode. *)
  let far =
    Program.Label "top" :: Program.Insn (Emit.comb Cond.Eq Reg.r0 Reg.r0 "bottom")
    :: (List.init 3000 (fun _ -> Program.Insn Emit.nop)
       @ [ Program.Label "bottom"; Program.Insn Emit.nop ])
  in
  let p = Program.resolve_exn far in
  match Encode.encode_fetch (Program.length p) (Program.insn p) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "over-range displacement encoded"

(* Decoding arbitrary words either errors or yields a re-encodable
   instruction; it never crashes. *)
let prop_decode_total =
  QCheck.Test.make ~name:"decode is total" ~count:2000 arb_word (fun w ->
      match Encode.decode ~addr:100 w with
      | Error _ -> true
      | Ok insn -> (
          match Encode.encode ~addr:100 insn with
          | Ok _ -> true
          | Error _ -> false))

(* The full millicode library (~1500 instructions, every branch form)
   round-trips through the binary codec. *)
let test_millicode_encodes () =
  let prog = Hppa.Millicode.resolved () in
  match Encode.encode_fetch (Program.length prog) (Program.insn prog) with
  | Error msg -> Alcotest.failf "millicode failed to encode: %s" msg
  | Ok words -> (
      match Encode.decode_program words with
      | Error msg -> Alcotest.failf "millicode failed to decode: %s" msg
      | Ok insns ->
          Alcotest.(check bool) "image identical" true
            (Array.for_all2 (Insn.equal Int.equal) (Program.code prog) insns))

let prop_image_roundtrip =
  QCheck.Test.make ~name:"binary image roundtrip" ~count:300
    (QCheck.list_of_size (QCheck.Gen.int_range 1 20) arb_insn)
    (fun insns ->
      match Program.resolve (wrap insns) with
      | Error _ -> false
      | Ok p -> (
          match Image.to_bytes p with
          | Error _ -> QCheck.assume_fail ()
          | Ok data -> (
              match Image.of_bytes data with
              | Error msg -> QCheck.Test.fail_reportf "of_bytes: %s" msg
              | Ok insns' -> Array.for_all2 (Insn.equal Int.equal) (Program.code p) insns')))

let test_image_rejects_garbage () =
  (match Image.of_bytes (Bytes.of_string "not an image") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad magic accepted");
  let p = Program.resolve_exn [ Program.Insn Emit.nop ] in
  match Image.to_bytes p with
  | Error e -> Alcotest.failf "to_bytes: %s" e
  | Ok data -> (
      match Image.of_bytes (Bytes.sub data 0 (Bytes.length data - 1)) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "truncated image accepted")

let test_asm_syntax_extras () =
  (* Multiple labels, label-only lines, case-insensitive mnemonics, hex
     immediates. *)
  let src =
    Asm.parse_exn
      {|
a: b: c: ADD r1, r2, r3
d:
   LDO 0x10(r0), r4
   comib,= -0x4, r5, a
|}
  in
  let p = Program.resolve_exn src in
  Alcotest.(check int) "three labels at 0" 0 (Program.symbol_exn p "c");
  Alcotest.(check int) "d at 1" 1 (Program.symbol_exn p "d");
  Alcotest.(check int) "length" 3 (Program.length p)

let suite =
  [
    ( "isa:unit",
      [
        Alcotest.test_case "register names" `Quick test_reg_names;
        Alcotest.test_case "register bounds" `Quick test_reg_bounds;
        Alcotest.test_case "cond roundtrip" `Quick test_cond_roundtrip;
        Alcotest.test_case "cond eval" `Quick test_cond_eval;
        Alcotest.test_case "parse basic" `Quick test_parse_basic;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "parse error messages" `Quick
          test_parse_error_messages;
        Alcotest.test_case "parse error lines" `Quick
          test_parse_error_messages_ok_cases;
        Alcotest.test_case "resolve errors" `Quick test_resolve_errors;
        Alcotest.test_case "resolve before libraries" `Quick test_resolve_before;
        Alcotest.test_case "spliced library = whole pass" `Quick test_splice;
        Alcotest.test_case "images are never shared" `Quick test_image_isolation;
        Alcotest.test_case "links share the library" `Quick test_links_share_library;
        Alcotest.test_case "a library carries its words and marks" `Quick
          test_library_record;
        Alcotest.test_case "a link allocates nothing major" `Quick test_link_allocation;
        Alcotest.test_case "concat keeps the last unit" `Quick test_concat;
        Alcotest.test_case "validate ranges" `Quick test_validate_ranges;
        Alcotest.test_case "branch displacement" `Quick test_branch_displacement_limit;
        Alcotest.test_case "millicode encodes" `Quick test_millicode_encodes;
        Alcotest.test_case "asm syntax extras" `Quick test_asm_syntax_extras;
        Alcotest.test_case "image rejects garbage" `Quick test_image_rejects_garbage;
        Alcotest.test_case "to_string = pp over the millicode" `Quick
          test_to_string_millicode;
      ] );
    qsuite "isa:props"
      [
        prop_cond_negate; prop_asm_roundtrip; prop_encode_roundtrip;
        prop_decode_total; prop_image_roundtrip; prop_to_string;
        prop_splice_split;
      ];
  ]
