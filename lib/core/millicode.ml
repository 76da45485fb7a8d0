(* mulI / muloI are aliases of the final-algorithm routines; a label-only
   compilation unit placed right before each target would also work, but
   explicit single-instruction trampolines keep every entry independent of
   layout. *)
let aliases =
  let b = Builder.create ~prefix:"aliases" () in
  Builder.label b "mulI";
  Builder.insn b (Emit.b "mul_final");
  Builder.label b "muloI";
  Builder.insn b (Emit.b "mulo");
  Builder.to_source b

let source =
  Program.concat
    [
      aliases; Mul_var.all; Mul_ext.source; Div_gen.source; Div_ext.source;
      Div_small.source; Mul_w64.source; Div_w64.source; Div_u128.source;
    ]

let library () =
  match Program.library source with
  | Ok lib -> lib
  | Error msg -> invalid_arg ("Millicode.library: " ^ msg)

let link src =
  ignore (library ());
  Program.resolve_exn (Program.concat [ src; source ])

let resolved () = link []
let machine ?config () = Hppa_machine.Machine.create ?config (resolved ())
let scheduled_source () = Delay.schedule source

let scheduled_machine () =
  Hppa_machine.Machine.create ~delay_slots:true
    (Program.resolve_exn (scheduled_source ()))

let entries =
  [ "mulI"; "muloI" ] @ Mul_var.entries @ Mul_ext.entries @ Div_gen.entries
  @ Div_ext.entries @ Div_small.entries @ Mul_w64.entries @ Div_w64.entries
  @ Div_u128.entries

let mulI = "mulI"
let muloI = "muloI"

(* Declared register interfaces of every entry, for the static checker:
   everything takes arg0/arg1 (arg2 for the 64/32 divides) and clobbers
   only the scratch set; the 64-bit routines and the divides also
   document ret1 (high word / remainder). *)
let conventions =
  let spec ?(args = [ Reg.arg0; Reg.arg1 ]) ~results name =
    { Hppa_verify.Cfg.name; args; results; clobbers = Hppa_verify.Cfg.scratch }
  in
  let r1 = [ Reg.ret0 ] and r2 = [ Reg.ret0; Reg.ret1 ] in
  List.map (spec ~results:r1)
    [
      "mulI"; "muloI"; "mul_naive"; "mul_naive_early"; "mul_nibble";
      "mul_switch"; "mul_final"; "mulo"; "divU_small"; "divI_small";
    ]
  @ List.map (spec ~results:r2) [ "mulU64"; "mulI64"; "divU"; "divI"; "remU"; "remI" ]
  @ List.map
      (spec ~args:[ Reg.arg0; Reg.arg1; Reg.arg2 ] ~results:r2)
      [ "divU64"; "divI64" ]
  @
  (* The W64 family takes both operands as register pairs. The 128-bit
     multiplies also return the low result dword in (arg0:arg1); the
     divide cores return the remainder dword there. *)
  let w64_args = [ Reg.arg0; Reg.arg1; Reg.arg2; Reg.arg3 ] in
  let r4 = [ Reg.ret0; Reg.ret1; Reg.arg0; Reg.arg1 ] in
  List.map (spec ~args:w64_args ~results:r4)
    [ "mulU128"; "mulI128"; "w64$udivmod"; "w64$sdivmod" ]
  @ List.map (spec ~args:w64_args ~results:r2) Div_w64.entries
  @
  (* The 128/64 divide takes three operand dwords — the divisor rides
     in (ret0:ret1) — and its estimate-and-correct step additionally
     takes a scalar limb in ret0. *)
  [
    spec
      ~args:(w64_args @ [ Reg.ret0; Reg.ret1 ])
      ~results:r4 "divU128by64";
    spec
      ~args:(w64_args @ [ Reg.ret0 ])
      ~results:[ Reg.ret0; Reg.arg0; Reg.arg1 ]
      "w64$divlstep";
  ]

(* The pair-level view of the W64 interface: both operands are 64-bit
   (hi:lo) pairs everywhere; the multiplies and the divide cores return
   two result dwords, the public divide/rem wrappers one. *)
let pair_conventions =
  let xy = [ (Reg.arg0, Reg.arg1); (Reg.arg2, Reg.arg3) ] in
  let both = [ (Reg.ret0, Reg.ret1); (Reg.arg0, Reg.arg1) ] in
  let ret = [ (Reg.ret0, Reg.ret1) ] in
  List.map
    (fun name ->
      { Hppa_verify.Pairs.name; arg_pairs = xy; result_pairs = both })
    [ "mulU128"; "mulI128"; "w64$udivmod"; "w64$sdivmod" ]
  @ List.map
      (fun name ->
        { Hppa_verify.Pairs.name; arg_pairs = xy; result_pairs = ret })
      Div_w64.entries
  @ [
      (* divU128by64: dividend in both arg slots, divisor in the
         (ret0:ret1) slot; quotient and remainder dwords back in the
         canonical result pairs. *)
      {
        Hppa_verify.Pairs.name = "divU128by64";
        arg_pairs = Hppa_verify.Pairs.arg_slots;
        result_pairs = both;
      };
      (* The step's chunk rides in (arg0:arg1) and its remainder comes
         back there; the scalar limbs are outside the pair view. *)
      {
        Hppa_verify.Pairs.name = "w64$divlstep";
        arg_pairs = [ (Reg.arg0, Reg.arg1) ];
        result_pairs = [ (Reg.arg0, Reg.arg1) ];
      };
    ]

let lint ?(scheduled = false) () =
  let src = if scheduled then scheduled_source () else source in
  let options =
    {
      Hppa_verify.Cfg.mode =
        (if scheduled then Hppa_verify.Cfg.Delay_slot else Hppa_verify.Cfg.Simple);
      blr_slots = Div_small.threshold;
    }
  in
  match
    Hppa_verify.Driver.check_source ~options ~specs:conventions
      ~pairs:pair_conventions ~entries src
  with
  | Ok findings -> findings
  | Error msg -> [ Hppa_verify.Findings.v Hppa_verify.Findings.Structure msg ]
