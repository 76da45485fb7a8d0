(* Independent output checks. Nothing here reads reply bytes or results
   produced by the layers under test as the expected value: served plan
   code is assembled and run on the Cpu reference interpreter and
   compared with OCaml Int32 arithmetic; W64 results are compared with
   Int64 arithmetic and Hppa_w64's two-word reference; compiled programs
   with Expr.eval/eval64 and Loop_ir.eval/eval64. *)

module Cpu = Hppa_machine.Cpu
module W64 = Hppa_w64
open Hppa_compiler

let fuel = 1_000_000

(* ------------------------------------------------------------------ *)
(* Reply parsing                                                        *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Index of the first occurrence of [sub] in [s] at or after [from]. *)
let find_sub ?(from = 0) s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go from

let split_on sep s =
  let m = String.length sep in
  let rec go from acc =
    match find_sub ~from s sep with
    | Some i -> go (i + m) (String.sub s from (i - from) :: acc)
    | None -> List.rev (String.sub s from (String.length s - from) :: acc)
  in
  go 0 []

(* The value of [key=] in a space-separated reply. *)
let field reply key =
  match find_sub reply (" " ^ key ^ "=") with
  | None -> None
  | Some i ->
      let from = i + String.length key + 2 in
      let stop =
        match String.index_from_opt reply from ' ' with
        | Some j -> j
        | None -> String.length reply
      in
      Some (String.sub reply from (stop - from))

(* ------------------------------------------------------------------ *)
(* Running code on the reference interpreter                            *)

let millicode = lazy (Hppa.Millicode.resolved ())
let arg_regs = [ Reg.arg0; Reg.arg1; Reg.arg2; Reg.arg3; Reg.ret0; Reg.ret1 ]

(* Call [entry] with the millicode calling convention on a reference
   interpreter; returns the outcome, the register reader and the cycles. *)
let cpu_call m entry args =
  Cpu.reset m;
  List.iteri (fun i a -> Cpu.set m (List.nth arg_regs i) a) args;
  Cpu.set m Reg.rp Cpu.halt_sentinel;
  Cpu.set m Reg.mrp Cpu.halt_sentinel;
  Cpu.set_pc m (Program.symbol_exn (Cpu.program m) entry);
  let outcome = Cpu.run ~fuel m in
  (outcome, Cpu.get m, Hppa_machine.Stats.cycles (Cpu.stats m))

let millicode_cpu = lazy (Cpu.create (Lazy.force millicode))

let outcome_name = function
  | Cpu.Halted -> "halted"
  | Cpu.Trapped t -> "trap " ^ Hppa_machine.Trap.to_string t
  | Cpu.Fuel_exhausted -> "fuel exhausted"

(* Turn the reply's one-line [code=] rendering back into assembly. *)
let assemble code =
  let lines = split_on " | " code in
  match Asm.parse (String.concat "\n" lines) with
  | Error e -> Error ("code does not assemble: " ^ e)
  | Ok src -> (
      match
        List.find_map (function Program.Label l -> Some l | _ -> None) src
      with
      | None -> Error "code has no entry label"
      | Some entry -> (
          (* Fallback divides call the general millicode divide. *)
          match Program.resolve src with
          | Ok prog -> Ok (prog, entry)
          | Error _ -> (
              match Program.resolve (src @ Hppa.Div_gen.source) with
              | Error e -> Error ("code does not link: " ^ e)
              | Ok prog -> Ok (prog, entry))))

(* Operands every plan is run on: the edges plus a few drawn from the
   constant itself, so the sample is fixed per request. *)
let plan_samples c =
  let g = Hppa_dist.Prng.create (Int64.of_int32 c) in
  [ 0l; 1l; -1l; 2l; 7l; 1000l; Int32.max_int; Int32.min_int ]
  @ List.init 8 (fun _ -> Hppa_dist.Prng.word g)

type verdict = (int * int, string) result
(** [Ok (cycles, runs)]: simulated cycles summed over the runs made. *)

let check_plan_reply ~line reply : verdict =
  let fail fmt = Printf.ksprintf (fun s -> Error (line ^ ": " ^ s)) fmt in
  match String.split_on_char ' ' line with
  | [ (("MUL" | "DIV") as verb); c ] -> (
      let c = Int32.of_string c in
      let head =
        if verb = "MUL" then Printf.sprintf "OK MUL n=%ld " c
        else Printf.sprintf "OK DIV d=%ld " c
      in
      let expect x =
        if verb = "MUL" then Int32.mul x c
        else if c > 0l then Int32.unsigned_div x c
        else Int32.div x c
      in
      if not (starts_with ~prefix:head reply) then fail "bad reply %S" reply
      else
        match find_sub reply " code=" with
        | None -> fail "reply has no code"
        | Some i -> (
            let code = String.sub reply (i + 6) (String.length reply - i - 6) in
            match assemble code with
            | Error e -> fail "%s" e
            | Ok (prog, entry) ->
                let m = Cpu.create prog in
                List.fold_left
                  (fun acc x ->
                    match acc with
                    | Error _ -> acc
                    | Ok (cyc, runs) -> (
                        match cpu_call m entry [ x ] with
                        | Cpu.Halted, get, c' ->
                            let got = get Reg.ret0 in
                            if got = expect x then Ok (cyc + c', runs + 1)
                            else fail "x=%ld: got %ld, want %ld" x got (expect x)
                        | o, _, _ -> fail "x=%ld: %s" x (outcome_name o)))
                  (Ok (0, 0)) (plan_samples c)))
  | _ -> fail "not a plan request"

(* W64MUL/W64DIV/W64REM and W64DIVL replies: the whole reply is rebuilt
   from Int64 arithmetic (the 128-bit product and the 128/64 divide from
   Hppa_w64's two-word reference) and the cycle count from a run of the
   millicode entry on the reference interpreter. *)
let check_w64_reply ~line reply : verdict =
  let fail fmt = Printf.ksprintf (fun s -> Error (line ^ ": " ^ s)) fmt in
  let m = Lazy.force millicode_cpu in
  let with_run entry args render =
    match cpu_call m entry args with
    | Cpu.Halted, _, cycles ->
        let want = render cycles in
        if reply = want then Ok (cycles, 1) else fail "got %S, want %S" reply want
    | o, _, _ -> fail "reference run: %s" (outcome_name o)
  in
  match String.split_on_char ' ' line with
  | [ verb; sign; x; y ] when verb <> "W64DIVL" && starts_with ~prefix:"W64" verb -> (
      let signed = sign = "s" and x = Int64.of_string x and y = Int64.of_string y in
      let op =
        match verb with
        | "W64MUL" -> Some W64.Mul
        | "W64DIV" -> Some W64.Div
        | "W64REM" -> Some W64.Rem
        | _ -> None
      in
      match op with
      | None -> fail "not a W64 request"
      | Some op ->
          let entry = W64.entry ~signed op in
          let div = if signed then Int64.div else Int64.unsigned_div in
          let rem = if signed then Int64.rem else Int64.unsigned_rem in
          let result =
            match op with
            | W64.Mul -> (
                match W64.reference entry x y with
                | W64.Value { ret; arg } -> Printf.sprintf "hi=%Ld lo=%Ld" ret arg
                | _ -> "reference trapped")
            | W64.Div -> Printf.sprintf "q=%Ld r=%Ld" (div x y) (rem x y)
            | W64.Rem -> Printf.sprintf "r=%Ld" (rem x y)
          in
          with_run entry (W64.operands x y) (fun cycles ->
              Printf.sprintf "OK %s signed=%b x=%Ld y=%Ld %s cycles=%d entry=%s"
                verb signed x y result cycles entry))
  | [ "W64DIVL"; xhi; xlo; y ] -> (
      let xhi = Int64.of_string xhi
      and xlo = Int64.of_string xlo
      and y = Int64.of_string y in
      match W64.reference_divl ~xhi ~xlo y with
      | W64.Value { ret; arg } ->
          with_run W64.divl_entry (W64.operands_divl ~xhi ~xlo y) (fun cycles ->
              Printf.sprintf
                "OK W64DIVL xhi=%Ld xlo=%Ld y=%Ld q=%Ld r=%Ld cycles=%d entry=%s"
                xhi xlo y ret arg cycles W64.divl_entry)
      | _ -> fail "workload operands trap")
  | _ -> fail "not a W64 request"

let check_scalar_reply ~line reply =
  if starts_with ~prefix:"W64" line then check_w64_reply ~line reply
  else check_plan_reply ~line reply

(* A batch reply: the header, then each lane byte-identical to the
   (already checked) scalar reply for that lane's key. *)
let check_batch_reply ~line ~scalar lines =
  match String.split_on_char ' ' line with
  | verb :: lanes ->
      let k = List.length lanes in
      let kernel = String.sub verb 0 (String.length verb - 1) in
      let header = Printf.sprintf "OK %s k=%d" verb k in
      if lines = [] || List.hd lines <> header then
        Error (Printf.sprintf "%s: bad batch header" line)
      else if List.length lines <> k + 1 then
        Error (Printf.sprintf "%s: %d lane lines, want %d" line (List.length lines - 1) k)
      else
        List.fold_left2
          (fun acc lane got ->
            match acc with
            | Error _ -> acc
            | Ok () -> (
                let key = kernel ^ " " ^ lane in
                match scalar key with
                | Some want when want = got -> Ok ()
                | Some want ->
                    Error (Printf.sprintf "%s: lane %s %S differs from scalar %S" line lane got want)
                | None -> Error (Printf.sprintf "%s: lane %s was never checked" line lane)))
          (Ok ()) lanes (List.tl lines)
  | [] -> Error "empty batch request"

(* ------------------------------------------------------------------ *)
(* Kernel results (sim_kernels)                                         *)

let u32 x = Int64.logand (Int64.of_int32 x) 0xffff_ffffL

(* Expected register values after calling [entry] on [args]. *)
let kernel_expect entry args : (Reg.t * int32) list =
  let pair ret arg =
    [ (Reg.ret0, W64.hi32 ret); (Reg.ret1, W64.lo32 ret); (Reg.arg0, W64.hi32 arg); (Reg.arg1, W64.lo32 arg) ]
  in
  let w64 () =
    match args with
    | [ xh; xl; yh; yl ] -> (W64.join xh xl, W64.join yh yl)
    | _ -> invalid_arg "kernel_expect: W64 operands"
  in
  match (entry, args) with
  | "mulI", [ x; y ] -> [ (Reg.ret0, Int32.mul x y) ]
  | "mulU64", [ x; y ] ->
      let p = Int64.mul (u32 x) (u32 y) in
      [ (Reg.ret0, Int64.to_int32 p); (Reg.ret1, Int64.to_int32 (Int64.shift_right_logical p 32)) ]
  | "divU", [ x; y ] -> [ (Reg.ret0, Int32.unsigned_div x y); (Reg.ret1, Int32.unsigned_rem x y) ]
  | "divI", [ x; y ] -> [ (Reg.ret0, Int32.div x y); (Reg.ret1, Int32.rem x y) ]
  | "remU", [ x; y ] -> [ (Reg.ret0, Int32.unsigned_rem x y) ]
  | "remI", [ x; y ] -> [ (Reg.ret0, Int32.rem x y) ]
  | ("divU64w" | "remU64w"), _ ->
      let x, y = w64 () in
      let q = Int64.unsigned_div x y and r = Int64.unsigned_rem x y in
      pair (if entry = "divU64w" then q else r) r
  | ("divI64w" | "remI64w"), _ ->
      let x, y = w64 () in
      let q = Int64.div x y and r = Int64.rem x y in
      pair (if entry = "divI64w" then q else r) r
  | ("mulU128" | "mulI128"), _ -> (
      let x, y = w64 () in
      match W64.reference entry x y with
      | W64.Value { ret; arg } -> pair ret arg
      | _ -> invalid_arg "kernel_expect: product trapped")
  | "divU128by64", [ xh; xl; yh; yl; y0; y1 ] -> (
      match W64.reference_divl ~xhi:(W64.join xh xl) ~xlo:(W64.join yh yl) (W64.join y0 y1) with
      | W64.Value { ret; arg } -> pair ret arg
      | _ -> invalid_arg "kernel_expect: divl operands trap")
  | _ -> invalid_arg ("kernel_expect: " ^ entry)

let check_kernel ~entry ~args ~outcome ~get =
  match outcome with
  | Cpu.Halted ->
      List.fold_left
        (fun acc (r, want) ->
          match acc with
          | Error _ -> acc
          | Ok () ->
              let got = get r in
              if got = want then Ok ()
              else
                Error
                  (Printf.sprintf "%s(%s): %s = %ld, want %ld" entry
                     (String.concat "," (List.map Int32.to_string args))
                     (Reg.name r) got want))
        (Ok ()) (kernel_expect entry args)
  | o -> Error (Printf.sprintf "%s: %s" entry (outcome_name o))

(* ------------------------------------------------------------------ *)
(* Compiled programs (compile)                                           *)

let width_of = function
  | Gen.Expr { width; _ } | Gen.Loop { width; _ } -> width

(* The reference value of a program on one (x, y) input. *)
let program_expect (p : Gen.program) (x, y) =
  match p with
  | Gen.Expr { width = Expr.W32; e; _ } ->
      let env v = if v = "x" then Int64.to_int32 x else Int64.to_int32 y in
      Int64.of_int32 (Expr.eval ~env e)
  | Gen.Expr { width = Expr.W64; e; _ } ->
      let env v = if v = "x" then x else y in
      Expr.eval64 ~env e
  | Gen.Loop { width = Expr.W32; loop; _ } ->
      Int64.of_int32
        (List.assoc "acc"
           (Loop_ir.eval loop ~init:[ ("acc", Int64.to_int32 x); ("n", Int64.to_int32 y) ]))
  | Gen.Loop { width = Expr.W64; loop; _ } ->
      List.assoc "acc" (Loop_ir.eval64 loop ~init:[ ("acc", x); ("n", y) ])

(* Machine arguments and result decoding for a program's width. *)
let program_args p (x, y) =
  match width_of p with
  | Expr.W32 -> [ Int64.to_int32 x; Int64.to_int32 y ]
  | Expr.W64 -> W64.operands x y

let program_result p get =
  match width_of p with
  | Expr.W32 -> Int64.of_int32 (get Reg.ret0)
  | Expr.W64 -> W64.join (get Reg.ret0) (get Reg.ret1)

let check_program (c : Gen.case) input ~outcome ~get =
  match outcome with
  | Cpu.Halted ->
      let got = program_result c.program get
      and want = program_expect c.program input in
      if got = want then Ok ()
      else Error (Printf.sprintf "program %d: got %Ld, want %Ld" c.id got want)
  | o -> Error (Printf.sprintf "program %d: %s" c.id (outcome_name o))
