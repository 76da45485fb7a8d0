(* High-level interface to the double-word (W64) millicode family, and
   the one table of its served run-time-operand kernels. *)

module Word = Hppa_word.Word
module Machine = Hppa_machine.Machine
module Trap = Hppa_machine.Trap

type op = Mul | Div | Rem

(* -- register pairs ------------------------------------------------- *)

let hi32 x = Word.of_int64 (Int64.shift_right_logical x 32)
let lo32 x = Word.of_int64 x

let join hi lo =
  Int64.logor
    (Int64.shift_left (Word.to_int64_u hi) 32)
    (Word.to_int64_u lo)

let pairs dwords = List.concat_map (fun d -> [ hi32 d; lo32 d ]) dwords

(* -- outcomes ------------------------------------------------------- *)

(* Every entry leaves two architectural result dwords: [ret] in
   (ret0:ret1) — the product's high dword, the quotient, or the
   remainder — and [arg] in (arg0:arg1) — the product's low dword for
   the multiplies, the remainder for the divide/rem entries. *)
type outcome =
  | Value of { ret : int64; arg : int64 }
  | Trap of Trap.t
  | Fuel

let outcome_equal a b =
  match (a, b) with
  | Value a, Value b -> Int64.equal a.ret b.ret && Int64.equal a.arg b.arg
  | Trap a, Trap b -> Trap.equal a b
  | Fuel, Fuel -> true
  | _ -> false

let pp_outcome ppf = function
  | Value { ret; arg } -> Format.fprintf ppf "0x%016Lx/0x%016Lx" ret arg
  | Trap t -> Format.fprintf ppf "trap:%s" (Trap.to_string t)
  | Fuel -> Format.pp_print_string ppf "fuel-exhausted"

let zero_divide = Trap (Trap.Break Trap.divide_by_zero_code)
let overflow = Trap (Trap.Break Hppa.Div_ext.overflow_break_code)

(* -- the kernel table ----------------------------------------------- *)

type kernel = {
  verb : string;
  entries : string * string;
  tagged : bool;
  args : string list;
  takes : string;
  pack : int64 list -> Word.t list;
  unpack : ret:int64 -> arg:int64 -> (string * int64) list;
  reference : signed:bool -> int64 list -> outcome;
  batch_cap : int;
}

let kernel_entry k ~signed = if signed then snd k.entries else fst k.entries

let arity verb =
  invalid_arg ("Hppa_w64: wrong operand dword count for " ^ verb)

(* The three two-operand rows: a u/s tag, X in (arg0:arg1), Y in
   (arg2:arg3). int64 decimal tokens run to 20 characters, so 16 pairs
   (32 tokens) plus the tag and the verb fit a 1024-byte request line. *)
let pair_kernel ~verb ~entries ~unpack ~reference =
  {
    verb;
    entries;
    tagged = true;
    args = [ "x"; "y" ];
    takes = "a signedness and two integers";
    pack = pairs;
    unpack;
    reference =
      (fun ~signed -> function
        | [ x; y ] -> reference ~signed x y | _ -> arity verb);
    batch_cap = 16;
  }

(* Truncating 64/64 divide: [None] from the model is a zero divisor or
   the signed [-2^63 / -1] quotient overflow, each with its break code. *)
let divmod ~signed x y ret =
  match
    (if signed then Hppa.Div_w64.reference_signed
     else Hppa.Div_w64.reference_unsigned)
      x y
  with
  | Some (q, r) -> ret q r
  | None -> if Int64.equal y 0L then zero_divide else overflow

let mul =
  pair_kernel ~verb:"W64MUL" ~entries:("mulU128", "mulI128")
    ~unpack:(fun ~ret ~arg -> [ ("hi", ret); ("lo", arg) ])
    ~reference:(fun ~signed x y ->
      let hi, lo =
        (if signed then Hppa.Mul_w64.reference_signed
         else Hppa.Mul_w64.reference_unsigned)
          x y
      in
      Value { ret = hi; arg = lo })

let div =
  pair_kernel ~verb:"W64DIV" ~entries:("divU64w", "divI64w")
    ~unpack:(fun ~ret ~arg -> [ ("q", ret); ("r", arg) ])
    ~reference:(fun ~signed x y ->
      divmod ~signed x y (fun q r -> Value { ret = q; arg = r }))

let rem =
  pair_kernel ~verb:"W64REM" ~entries:("remU64w", "remI64w")
    ~unpack:(fun ~ret ~arg:_ -> [ ("r", ret) ])
    ~reference:(fun ~signed x y ->
      divmod ~signed x y (fun _ r -> Value { ret = r; arg = r }))

(* The 128/64 divide takes a third operand dword: the 128-bit dividend
   rides in both arg pairs and the divisor in (ret0:ret1), which is
   where Machine.call puts a fifth and sixth argument word. It is
   unsigned by definition, so its wire form carries no tag. Triples run
   to three 20-character tokens; 10 of them plus the verb fit the
   request line. *)
let divl =
  {
    verb = "W64DIVL";
    entries = ("divU128by64", "divU128by64");
    tagged = false;
    args = [ "xhi"; "xlo"; "y" ];
    takes = "three integers (dividend hi, dividend lo, divisor)";
    pack = pairs;
    unpack = (fun ~ret ~arg -> [ ("q", ret); ("r", arg) ]);
    reference =
      (fun ~signed:_ -> function
        | [ xhi; xlo; y ] -> (
            match
              Hppa.Div_u128.reference { Hppa_word.U128.hi = xhi; lo = xlo } y
            with
            | Some (q, r) -> Value { ret = q; arg = r }
            | None -> if Int64.equal y 0L then zero_divide else overflow)
        | _ -> arity "W64DIVL");
    batch_cap = 10;
  }

let kernels = [ mul; div; rem; divl ]

let runs =
  List.concat_map
    (fun k ->
      List.map (fun signed -> (k, signed))
        (if k.tagged then [ false; true ] else [ false ]))
    kernels

let of_op = function Mul -> mul | Div -> div | Rem -> rem

(* -- the names the benchmark harness and the tests use --------------- *)

let entry ~signed op = kernel_entry (of_op op) ~signed
let operands x y = mul.pack [ x; y ]
let divl_entry = kernel_entry divl ~signed:false
let operands_divl ~xhi ~xlo y = divl.pack [ xhi; xlo; y ]

let reference name x y =
  match
    List.find_opt
      (fun (k, signed) -> String.equal (kernel_entry k ~signed) name)
      runs
  with
  | Some (k, signed) -> k.reference ~signed [ x; y ]
  | None -> invalid_arg ("Hppa_w64.reference: " ^ name)

let reference_divl ~xhi ~xlo y = divl.reference ~signed:false [ xhi; xlo; y ]

(* -- execution ------------------------------------------------------ *)

let read_outcome ~get = function
  | Hppa_machine.Cpu.Halted ->
      Value
        {
          ret = join (get Reg.ret0) (get Reg.ret1);
          arg = join (get Reg.arg0) (get Reg.arg1);
        }
  | Hppa_machine.Cpu.Trapped t -> Trap t
  | Hppa_machine.Cpu.Fuel_exhausted -> Fuel

let call_cycles ?fuel m k ~signed dwords =
  let o, c =
    Machine.call_cycles ?fuel m (kernel_entry k ~signed) ~args:(k.pack dwords)
  in
  (read_outcome ~get:(Machine.get m) o, c)

let call ?fuel m k ~signed dwords = fst (call_cycles ?fuel m k ~signed dwords)

let batch_outcome b ~lane =
  read_outcome
    ~get:(Machine.Batch.get_reg b ~lane)
    (Machine.Batch.outcome b ~lane)
