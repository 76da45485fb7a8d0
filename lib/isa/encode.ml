(* Field packing works in a 32-bit OCaml int built from slices, converted to
   int32 at the end. Layout per major opcode (bit 31 = MSB holds the top of
   the 6-bit opcode):

     op:6 | fields...                                     (LSB-first below)

   0  Alu      t:5 b:5 a:5 aluop:4 ov:1
   1  Ds       t:5 b:5 a:5
   2  Addi     t:5 a:5 imm:14 ov:1
   3  Subi     t:5 a:5 imm:11 ov:1
   4  Comclr   t:5 b:5 a:5 cond:4
   5  Comiclr  t:5 a:5 imm:11 cond:4
   6  Extr     t:5 r:5 pos:5 len1:5 signed:1 cond:4  (len1 = len - 1)
   7  Zdep     t:5 r:5 pos:5 len1:5
   8  Shd      t:5 b:5 a:5 sa:5
   9  Ldil     t:5 imm:21                          (imm = value >> 11)
   10 Ldo      t:5 base:5 imm:14
   11 Ldw      t:5 base:5 disp:14
   12 Stw      r:5 base:5 disp:14
   13 Ldaddr   t:5 disp:17                         (PC-relative)
   14 Comb     disp:11 b:5 a:5 cond:4 n:1
   15 Comib    disp:11 a:5 imm:5 cond:4 n:1
   16 Addib    disp:11 a:5 imm:5 cond:4 n:1
   17 B        disp:17 n:1
   18 Bl       t:5 disp:17 n:1
   19 Blr      t:5 x:5 n:1
   20 Bv       base:5 x:5 n:1
   21 Break    code:5
   22 Nop
*)

let ( let* ) = Result.bind

type packer = { mutable acc : int; mutable pos : int }

let packer op =
  let p = { acc = 0; pos = 0 } in
  p.acc <- op lsl 26;
  p

let put p width v =
  assert (v >= 0 && v < 1 lsl width);
  p.acc <- p.acc lor (v lsl p.pos);
  p.pos <- p.pos + width;
  assert (p.pos <= 26)

let put_signed name p width v =
  let bound = 1 lsl (width - 1) in
  if v < -bound || v >= bound then
    Error (Printf.sprintf "%s: value %d exceeds %d-bit signed field" name v width)
  else (
    put p width (v land ((1 lsl width) - 1));
    Ok ())

let finish p = Int32.of_int p.acc

let cond_code c =
  let rec index i = function
    | [] -> assert false
    | x :: rest -> if Cond.equal x c then i else index (i + 1) rest
  in
  index 0 Cond.all

let cond_of_code i =
  match List.nth_opt Cond.all i with
  | Some c -> Ok c
  | None -> Error (Printf.sprintf "bad condition code %d" i)

let alu_code : Insn.alu -> int = function
  | Add -> 0
  | Addc -> 1
  | Sub -> 2
  | Subb -> 3
  | Shadd k -> 3 + k
  | And -> 7
  | Or -> 8
  | Xor -> 9
  | Andcm -> 10

let alu_of_code = function
  | 0 -> Ok Insn.Add
  | 1 -> Ok Insn.Addc
  | 2 -> Ok Insn.Sub
  | 3 -> Ok Insn.Subb
  | 4 | 5 | 6 as k -> Ok (Insn.Shadd (k - 3))
  | 7 -> Ok Insn.And
  | 8 -> Ok Insn.Or
  | 9 -> Ok Insn.Xor
  | 10 -> Ok Insn.Andcm
  | c -> Error (Printf.sprintf "bad ALU code %d" c)

let reg r = Reg.to_int r
let bool b = if b then 1 else 0

let encode ~addr (i : int Insn.t) =
  let rel target = target - addr in
  match i with
  | Alu { op; a; b; t; trap_ov } ->
      let p = packer 0 in
      put p 5 (reg t); put p 5 (reg b); put p 5 (reg a);
      put p 4 (alu_code op); put p 1 (bool trap_ov);
      Ok (finish p)
  | Ds { a; b; t } ->
      let p = packer 1 in
      put p 5 (reg t); put p 5 (reg b); put p 5 (reg a);
      Ok (finish p)
  | Addi { imm; a; t; trap_ov } ->
      let p = packer 2 in
      put p 5 (reg t); put p 5 (reg a);
      let* () = put_signed "addi" p 14 (Int32.to_int imm) in
      put p 1 (bool trap_ov);
      Ok (finish p)
  | Subi { imm; a; t; trap_ov } ->
      let p = packer 3 in
      put p 5 (reg t); put p 5 (reg a);
      let* () = put_signed "subi" p 11 (Int32.to_int imm) in
      put p 1 (bool trap_ov);
      Ok (finish p)
  | Comclr { cond; a; b; t } ->
      let p = packer 4 in
      put p 5 (reg t); put p 5 (reg b); put p 5 (reg a);
      put p 4 (cond_code cond);
      Ok (finish p)
  | Comiclr { cond; imm; a; t } ->
      let p = packer 5 in
      put p 5 (reg t); put p 5 (reg a);
      let* () = put_signed "comiclr" p 11 (Int32.to_int imm) in
      put p 4 (cond_code cond);
      Ok (finish p)
  | Extr { signed; r; pos; len; t; cond } ->
      let p = packer 6 in
      put p 5 (reg t); put p 5 (reg r); put p 5 pos; put p 5 (len - 1);
      put p 1 (bool signed); put p 4 (cond_code cond);
      Ok (finish p)
  | Zdep { r; pos; len; t } ->
      let p = packer 7 in
      put p 5 (reg t); put p 5 (reg r); put p 5 pos; put p 5 (len - 1);
      Ok (finish p)
  | Shd { a; b; sa; t } ->
      let p = packer 8 in
      put p 5 (reg t); put p 5 (reg b); put p 5 (reg a); put p 5 sa;
      Ok (finish p)
  | Ldil { imm; t } ->
      let p = packer 9 in
      put p 5 (reg t);
      put p 21 (Int32.to_int (Int32.shift_right_logical imm 11));
      Ok (finish p)
  | Ldo { imm; base; t } ->
      let p = packer 10 in
      put p 5 (reg t); put p 5 (reg base);
      let* () = put_signed "ldo" p 14 (Int32.to_int imm) in
      Ok (finish p)
  | Ldw { disp; base; t } ->
      let p = packer 11 in
      put p 5 (reg t); put p 5 (reg base);
      let* () = put_signed "ldw" p 14 (Int32.to_int disp) in
      Ok (finish p)
  | Stw { r; disp; base } ->
      let p = packer 12 in
      put p 5 (reg r); put p 5 (reg base);
      let* () = put_signed "stw" p 14 (Int32.to_int disp) in
      Ok (finish p)
  | Ldaddr { target; t } ->
      let p = packer 13 in
      put p 5 (reg t);
      let* () = put_signed "ldaddr" p 17 (rel target) in
      Ok (finish p)
  | Comb { cond; a; b; target; n } ->
      let p = packer 14 in
      let* () = put_signed "comb" p 11 (rel target) in
      put p 5 (reg b); put p 5 (reg a); put p 4 (cond_code cond);
      put p 1 (bool n);
      Ok (finish p)
  | Comib { cond; imm; a; target; n } ->
      let p = packer 15 in
      let* () = put_signed "comib" p 11 (rel target) in
      put p 5 (reg a);
      let* () = put_signed "comib-imm" p 5 (Int32.to_int imm) in
      put p 4 (cond_code cond);
      put p 1 (bool n);
      Ok (finish p)
  | Addib { cond; imm; a; target; n } ->
      let p = packer 16 in
      let* () = put_signed "addib" p 11 (rel target) in
      put p 5 (reg a);
      let* () = put_signed "addib-imm" p 5 (Int32.to_int imm) in
      put p 4 (cond_code cond);
      put p 1 (bool n);
      Ok (finish p)
  | B { target; n } ->
      let p = packer 17 in
      let* () = put_signed "b" p 17 (rel target) in
      put p 1 (bool n);
      Ok (finish p)
  | Bl { target; t; n } ->
      let p = packer 18 in
      put p 5 (reg t);
      let* () = put_signed "bl" p 17 (rel target) in
      put p 1 (bool n);
      Ok (finish p)
  | Blr { x; t; n } ->
      let p = packer 19 in
      put p 5 (reg t); put p 5 (reg x); put p 1 (bool n);
      Ok (finish p)
  | Bv { x; base; n } ->
      let p = packer 20 in
      put p 5 (reg base); put p 5 (reg x); put p 1 (bool n);
      Ok (finish p)
  | Break { code } ->
      let p = packer 21 in
      put p 5 code;
      Ok (finish p)
  | Nop -> Ok (finish (packer 22))

type unpacker = { word : int; mutable upos : int }

let take u width =
  let v = (u.word lsr u.upos) land ((1 lsl width) - 1) in
  u.upos <- u.upos + width;
  v

let take_signed u width =
  let v = take u width in
  if v land (1 lsl (width - 1)) <> 0 then v - (1 lsl width) else v

let take_reg u = Reg.of_int (take u 5)

let decode ~addr (w : int32) =
  let word = Int32.to_int w land 0xffff_ffff in
  let u = { word; upos = 0 } in
  let abs disp = addr + disp in
  let op = (word lsr 26) land 0x3f in
  match op with
  | 0 ->
      let t = take_reg u in let b = take_reg u in let a = take_reg u in
      let* aluop = alu_of_code (take u 4) in
      let trap_ov = take u 1 = 1 in
      Ok (Insn.Alu { op = aluop; a; b; t; trap_ov })
  | 1 ->
      let t = take_reg u in let b = take_reg u in let a = take_reg u in
      Ok (Insn.Ds { a; b; t })
  | 2 ->
      let t = take_reg u in let a = take_reg u in
      let imm = Int32.of_int (take_signed u 14) in
      Ok (Insn.Addi { imm; a; t; trap_ov = take u 1 = 1 })
  | 3 ->
      let t = take_reg u in let a = take_reg u in
      let imm = Int32.of_int (take_signed u 11) in
      Ok (Insn.Subi { imm; a; t; trap_ov = take u 1 = 1 })
  | 4 ->
      let t = take_reg u in let b = take_reg u in let a = take_reg u in
      let* cond = cond_of_code (take u 4) in
      Ok (Insn.Comclr { cond; a; b; t })
  | 5 ->
      let t = take_reg u in let a = take_reg u in
      let imm = Int32.of_int (take_signed u 11) in
      let* cond = cond_of_code (take u 4) in
      Ok (Insn.Comiclr { cond; imm; a; t })
  | 6 ->
      let t = take_reg u in let r = take_reg u in
      let pos = take u 5 in let len = take u 5 + 1 in
      let signed = take u 1 = 1 in
      let* cond = cond_of_code (take u 4) in
      Ok (Insn.Extr { signed; r; pos; len; t; cond })
  | 7 ->
      let t = take_reg u in let r = take_reg u in
      let pos = take u 5 in let len = take u 5 + 1 in
      Ok (Insn.Zdep { r; pos; len; t })
  | 8 ->
      let t = take_reg u in let b = take_reg u in let a = take_reg u in
      let sa = take u 5 in
      Ok (Insn.Shd { a; b; sa; t })
  | 9 ->
      let t = take_reg u in
      let imm = Int32.shift_left (Int32.of_int (take u 21)) 11 in
      Ok (Insn.Ldil { imm; t })
  | 10 ->
      let t = take_reg u in let base = take_reg u in
      Ok (Insn.Ldo { imm = Int32.of_int (take_signed u 14); base; t })
  | 11 ->
      let t = take_reg u in let base = take_reg u in
      Ok (Insn.Ldw { disp = Int32.of_int (take_signed u 14); base; t })
  | 12 ->
      let r = take_reg u in let base = take_reg u in
      Ok (Insn.Stw { r; disp = Int32.of_int (take_signed u 14); base })
  | 13 ->
      let t = take_reg u in
      Ok (Insn.Ldaddr { target = abs (take_signed u 17); t })
  | 14 ->
      let disp = take_signed u 11 in
      let b = take_reg u in let a = take_reg u in
      let* cond = cond_of_code (take u 4) in
      let n = take u 1 = 1 in
      Ok (Insn.Comb { cond; a; b; target = abs disp; n })
  | 15 ->
      let disp = take_signed u 11 in
      let a = take_reg u in
      let imm = Int32.of_int (take_signed u 5) in
      let* cond = cond_of_code (take u 4) in
      let n = take u 1 = 1 in
      Ok (Insn.Comib { cond; imm; a; target = abs disp; n })
  | 16 ->
      let disp = take_signed u 11 in
      let a = take_reg u in
      let imm = Int32.of_int (take_signed u 5) in
      let* cond = cond_of_code (take u 4) in
      let n = take u 1 = 1 in
      Ok (Insn.Addib { cond; imm; a; target = abs disp; n })
  | 17 ->
      let disp = take_signed u 17 in
      let n = take u 1 = 1 in
      Ok (Insn.B { target = abs disp; n })
  | 18 ->
      let t = take_reg u in
      let disp = take_signed u 17 in
      let n = take u 1 = 1 in
      Ok (Insn.Bl { target = abs disp; t; n })
  | 19 ->
      let t = take_reg u in let x = take_reg u in
      let n = take u 1 = 1 in
      Ok (Insn.Blr { x; t; n })
  | 20 ->
      let base = take_reg u in let x = take_reg u in
      let n = take u 1 = 1 in
      Ok (Insn.Bv { x; base; n })
  | 21 -> Ok (Insn.Break { code = take u 5 })
  | 22 -> Ok Insn.Nop
  | op -> Error (Printf.sprintf "bad opcode %d" op)

(* The words of the [n] instructions [fetch] gives, placed from
   address 0. *)
let encode_fetch n fetch =
  let out = Array.make n 0l in
  let rec go i =
    if i = n then Ok out
    else
      let* w = encode ~addr:i (fetch i) in
      out.(i) <- w;
      go (i + 1)
  in
  go 0

let decode_program words =
  let out = Array.make (Array.length words) (Insn.Nop : int Insn.t) in
  let rec go i =
    if i = Array.length words then Ok out
    else
      let* insn = decode ~addr:i words.(i) in
      out.(i) <- insn;
      go (i + 1)
  in
  go 0

let round_trip n fetch =
  let* words = encode_fetch n fetch in
  match decode_program words with
  | Error e -> Error ("decode: " ^ e)
  | Ok insns ->
      let rec same i = i = n || (insns.(i) = fetch i && same (i + 1)) in
      if same 0 then Ok words else Error "encode/decode round-trip mismatch"

let le_bytes words =
  let b = Bytes.create (4 * Array.length words) in
  Array.iteri (fun i w -> Bytes.set_int32_le b (i * 4) w) words;
  Bytes.unsafe_to_string b
