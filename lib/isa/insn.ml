type reg = Reg.t

type alu =
  | Add
  | Addc
  | Sub
  | Subb
  | Shadd of int
  | And
  | Or
  | Xor
  | Andcm

type 'lbl t =
  | Alu of { op : alu; a : reg; b : reg; t : reg; trap_ov : bool }
  | Ds of { a : reg; b : reg; t : reg }
  | Addi of { imm : int32; a : reg; t : reg; trap_ov : bool }
  | Subi of { imm : int32; a : reg; t : reg; trap_ov : bool }
  | Comclr of { cond : Cond.t; a : reg; b : reg; t : reg }
  | Comiclr of { cond : Cond.t; imm : int32; a : reg; t : reg }
  | Extr of {
      signed : bool;
      r : reg;
      pos : int;
      len : int;
      t : reg;
      cond : Cond.t;
    }
  | Zdep of { r : reg; pos : int; len : int; t : reg }
  | Shd of { a : reg; b : reg; sa : int; t : reg }
  | Ldil of { imm : int32; t : reg }
  | Ldo of { imm : int32; base : reg; t : reg }
  | Ldw of { disp : int32; base : reg; t : reg }
  | Stw of { r : reg; disp : int32; base : reg }
  | Ldaddr of { target : 'lbl; t : reg }
  | Comb of { cond : Cond.t; a : reg; b : reg; target : 'lbl; n : bool }
  | Comib of { cond : Cond.t; imm : int32; a : reg; target : 'lbl; n : bool }
  | Addib of { cond : Cond.t; imm : int32; a : reg; target : 'lbl; n : bool }
  | B of { target : 'lbl; n : bool }
  | Bl of { target : 'lbl; t : reg; n : bool }
  | Blr of { x : reg; t : reg; n : bool }
  | Bv of { x : reg; base : reg; n : bool }
  | Break of { code : int }
  | Nop

let map_target f = function
  | Ldaddr { target; t } -> Ldaddr { target = f target; t }
  | Comb { cond; a; b; target; n } -> Comb { cond; a; b; target = f target; n }
  | Comib { cond; imm; a; target; n } -> Comib { cond; imm; a; target = f target; n }
  | Addib { cond; imm; a; target; n } -> Addib { cond; imm; a; target = f target; n }
  | B { target; n } -> B { target = f target; n }
  | Bl { target; t; n } -> Bl { target = f target; t; n }
  | Alu _ as i -> i
  | Ds _ as i -> i
  | Addi _ as i -> i
  | Subi _ as i -> i
  | Comclr _ as i -> i
  | Comiclr _ as i -> i
  | Extr _ as i -> i
  | Zdep _ as i -> i
  | Shd _ as i -> i
  | Ldil _ as i -> i
  | Ldo _ as i -> i
  | Ldw _ as i -> i
  | Stw _ as i -> i
  | Blr _ as i -> i
  | Bv _ as i -> i
  | Break _ as i -> i
  | Nop -> Nop

let target = function
  | Ldaddr { target; _ }
  | Comb { target; _ }
  | Comib { target; _ }
  | Addib { target; _ }
  | B { target; _ }
  | Bl { target; _ } ->
      Some target
  | Alu _ | Ds _ | Addi _ | Subi _ | Comclr _ | Comiclr _ | Extr _ | Zdep _
  | Shd _ | Ldil _ | Ldo _ | Ldw _ | Stw _ | Blr _ | Bv _ | Break _ | Nop ->
      None

let equal eq_lbl i1 i2 =
  match (i1, i2) with
  | Ldaddr a, Ldaddr b -> eq_lbl a.target b.target && Reg.equal a.t b.t
  | Comb a, Comb b ->
      Cond.equal a.cond b.cond && Reg.equal a.a b.a && Reg.equal a.b b.b
      && eq_lbl a.target b.target && a.n = b.n
  | Comib a, Comib b ->
      Cond.equal a.cond b.cond && a.imm = b.imm && Reg.equal a.a b.a
      && eq_lbl a.target b.target && a.n = b.n
  | Addib a, Addib b ->
      Cond.equal a.cond b.cond && a.imm = b.imm && Reg.equal a.a b.a
      && eq_lbl a.target b.target && a.n = b.n
  | B a, B b -> eq_lbl a.target b.target && a.n = b.n
  | Bl a, Bl b -> eq_lbl a.target b.target && Reg.equal a.t b.t && a.n = b.n
  | i1, i2 -> map_target (fun _ -> ()) i1 = map_target (fun _ -> ()) i2

let is_branch = function
  | Comb _ | Comib _ | Addib _ | B _ | Bl _ | Blr _ | Bv _ -> true
  | Alu _ | Ds _ | Addi _ | Subi _ | Comclr _ | Comiclr _ | Extr _ | Zdep _
  | Shd _ | Ldil _ | Ldo _ | Ldw _ | Stw _ | Ldaddr _ | Break _ | Nop ->
      false

(* An instruction that may nullify its successor: moving its successor, or
   parking a branch in its shadow, changes which instruction it annuls. *)
let is_nullifier = function
  | Comclr _ | Comiclr _ -> true
  | Extr { cond; _ } -> not (Cond.equal cond Cond.Never)
  | _ -> false

let writes = function
  | Alu { t; _ }
  | Ds { t; _ }
  | Addi { t; _ }
  | Subi { t; _ }
  | Comclr { t; _ }
  | Comiclr { t; _ }
  | Extr { t; _ }
  | Zdep { t; _ }
  | Shd { t; _ }
  | Ldil { t; _ }
  | Ldo { t; _ }
  | Ldw { t; _ }
  | Ldaddr { t; _ }
  | Bl { t; _ }
  | Blr { t; _ } ->
      Some t
  | Addib { a; _ } -> Some a
  | Stw _ | Comb _ | Comib _ | B _ | Bv _ | Break _ | Nop -> None

let in_range lo hi v = v >= lo && v <= hi

let check_imm name bits (imm : int32) =
  let bound = Int32.shift_left 1l (bits - 1) in
  if imm >= Int32.neg bound && imm < bound then Ok ()
  else Error (Printf.sprintf "%s: immediate %ld out of %d-bit signed range" name imm bits)

let check_field name pos len =
  if pos >= 0 && len >= 1 && pos + len <= 32 then Ok ()
  else Error (Printf.sprintf "%s: bad field pos=%d len=%d" name pos len)

let validate = function
  | Alu { op = Shadd k; _ } when not (in_range 1 3 k) ->
      Error (Printf.sprintf "shadd: shift amount %d not in 1..3" k)
  | Alu _ | Ds _ | Comclr _ | Nop | B _ | Bl _ | Blr _ | Bv _ | Ldaddr _ ->
      Ok ()
  | Addi { imm; _ } -> check_imm "addi" 14 imm
  | Subi { imm; _ } -> check_imm "subi" 11 imm
  | Comiclr { imm; _ } -> check_imm "comiclr" 11 imm
  | Extr { pos; len; _ } -> check_field "extr" pos len
  | Zdep { pos; len; _ } -> check_field "zdep" pos len
  | Shd { sa; _ } ->
      if in_range 0 31 sa then Ok ()
      else Error (Printf.sprintf "shd: shift amount %d not in 0..31" sa)
  | Ldil { imm; _ } ->
      if Int32.logand imm 0x7ffl = 0l then Ok ()
      else Error (Printf.sprintf "ldil: %lx has nonzero low 11 bits" imm)
  | Ldo { imm; _ } -> check_imm "ldo" 14 imm
  | Ldw { disp; _ } -> check_imm "ldw" 14 disp
  | Stw { disp; _ } -> check_imm "stw" 14 disp
  | Comb _ -> Ok ()
  | Comib { imm; _ } -> check_imm "comib" 5 imm
  | Addib { imm; _ } -> check_imm "addib" 5 imm
  | Break { code } ->
      if in_range 0 31 code then Ok ()
      else Error (Printf.sprintf "break: code %d not in 0..31" code)

let reads = function
  | Alu { a; b; _ } | Ds { a; b; _ } | Comclr { a; b; _ } -> [ a; b ]
  | Addi { a; _ } | Subi { a; _ } | Comiclr { a; _ } -> [ a ]
  | Extr { r; _ } | Zdep { r; _ } -> [ r ]
  | Shd { a; b; _ } -> [ a; b ]
  | Ldil _ | Ldaddr _ | Break _ | Nop -> []
  | Ldo { base; _ } | Ldw { base; _ } -> [ base ]
  | Stw { r; base; _ } -> [ r; base ]
  | Comb { a; b; _ } -> [ a; b ]
  | Comib { a; _ } -> [ a ]
  | Addib { a; _ } -> [ a ]
  | B _ -> []
  | Bl _ -> []
  | Blr { x; _ } -> [ x ]
  | Bv { x; base; _ } -> [ x; base ]

let reads_distinct i =
  List.fold_right
    (fun r acc -> if List.exists (Reg.equal r) acc then acc else r :: acc)
    (reads i) []

let set_n n = function
  | Comb r -> Comb { r with n }
  | Comib r -> Comib { r with n }
  | Addib r -> Addib { r with n }
  | B r -> B { r with n }
  | Bl r -> Bl { r with n }
  | Blr r -> Blr { r with n }
  | Bv r -> Bv { r with n }
  | i -> i

let get_n = function
  | Comb { n; _ } | Comib { n; _ } | Addib { n; _ } | B { n; _ } | Bl { n; _ }
  | Blr { n; _ } | Bv { n; _ } ->
      n
  | _ -> false

let alu_mnemonic = function
  | Add -> "add"
  | Addc -> "addc"
  | Sub -> "sub"
  | Subb -> "subb"
  | Shadd k -> Printf.sprintf "sh%dadd" k
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Andcm -> "andcm"

let mnemonic = function
  | Alu { op; trap_ov; _ } -> alu_mnemonic op ^ if trap_ov then ",o" else ""
  | Ds _ -> "ds"
  | Addi { trap_ov; _ } -> if trap_ov then "addi,o" else "addi"
  | Subi { trap_ov; _ } -> if trap_ov then "subi,o" else "subi"
  | Comclr { cond; _ } -> "comclr," ^ Cond.to_string cond
  | Comiclr { cond; _ } -> "comiclr," ^ Cond.to_string cond
  | Extr { signed; cond; _ } ->
      let base = if signed then "extrs" else "extru" in
      if Cond.equal cond Cond.Never then base
      else base ^ "," ^ Cond.to_string cond
  | Zdep _ -> "zdep"
  | Shd _ -> "shd"
  | Ldil _ -> "ldil"
  | Ldo _ -> "ldo"
  | Ldw _ -> "ldw"
  | Stw _ -> "stw"
  | Ldaddr _ -> "ldaddr"
  | Comb { cond; n; _ } -> "comb," ^ Cond.to_string cond ^ if n then ",n" else ""
  | Comib { cond; n; _ } -> "comib," ^ Cond.to_string cond ^ if n then ",n" else ""
  | Addib { cond; n; _ } -> "addib," ^ Cond.to_string cond ^ if n then ",n" else ""
  | B { n; _ } -> if n then "b,n" else "b"
  | Bl { n; _ } -> if n then "bl,n" else "bl"
  | Blr { n; _ } -> if n then "blr,n" else "blr"
  | Bv { n; _ } -> if n then "bv,n" else "bv"
  | Break _ -> "break"
  | Nop -> "nop"

let pp pp_lbl ppf i =
  let m = mnemonic i in
  let reg = Reg.pp in
  match i with
  | Alu { a; b; t; _ } -> Format.fprintf ppf "%s %a, %a, %a" m reg a reg b reg t
  | Ds { a; b; t } -> Format.fprintf ppf "%s %a, %a, %a" m reg a reg b reg t
  | Addi { imm; a; t; _ } | Subi { imm; a; t; _ } ->
      Format.fprintf ppf "%s %ld, %a, %a" m imm reg a reg t
  | Comclr { a; b; t; _ } -> Format.fprintf ppf "%s %a, %a, %a" m reg a reg b reg t
  | Comiclr { imm; a; t; _ } -> Format.fprintf ppf "%s %ld, %a, %a" m imm reg a reg t
  | Extr { r; pos; len; t; _ } | Zdep { r; pos; len; t } ->
      Format.fprintf ppf "%s %a, %d, %d, %a" m reg r pos len reg t
  | Shd { a; b; sa; t } -> Format.fprintf ppf "%s %a, %a, %d, %a" m reg a reg b sa reg t
  | Ldil { imm; t } -> Format.fprintf ppf "%s 0x%lx, %a" m imm reg t
  | Ldo { imm; base; t } -> Format.fprintf ppf "%s %ld(%a), %a" m imm reg base reg t
  | Ldw { disp; base; t } -> Format.fprintf ppf "%s %ld(%a), %a" m disp reg base reg t
  | Stw { r; disp; base } -> Format.fprintf ppf "%s %a, %ld(%a)" m reg r disp reg base
  | Ldaddr { target; t } -> Format.fprintf ppf "%s %a, %a" m pp_lbl target reg t
  | Comb { a; b; target; _ } ->
      Format.fprintf ppf "%s %a, %a, %a" m reg a reg b pp_lbl target
  | Comib { imm; a; target; _ } ->
      Format.fprintf ppf "%s %ld, %a, %a" m imm reg a pp_lbl target
  | Addib { imm; a; target; _ } ->
      Format.fprintf ppf "%s %ld, %a, %a" m imm reg a pp_lbl target
  | B { target; _ } -> Format.fprintf ppf "%s %a" m pp_lbl target
  | Bl { target; t; _ } -> Format.fprintf ppf "%s %a, %a" m pp_lbl target reg t
  | Blr { x; t; _ } -> Format.fprintf ppf "%s %a, %a" m reg x reg t
  | Bv { x; base; _ } -> Format.fprintf ppf "%s %a(%a)" m reg x reg base
  | Break { code } -> Format.fprintf ppf "%s %d" m code
  | Nop -> Format.pp_print_string ppf m

(* [pp]'s bytes, concatenated without a formatter: the plan service
   renders every emitted instruction of every reply with this. *)
let to_string lbl i =
  let m = mnemonic i and reg = Reg.name and imm = Int32.to_string in
  let ops l = m ^ " " ^ String.concat ", " l in
  match i with
  | Alu { a; b; t; _ } | Ds { a; b; t } | Comclr { a; b; t; _ } ->
      ops [ reg a; reg b; reg t ]
  | Addi { imm = v; a; t; _ } | Subi { imm = v; a; t; _ }
  | Comiclr { imm = v; a; t; _ } ->
      ops [ imm v; reg a; reg t ]
  | Extr { r; pos; len; t; _ } | Zdep { r; pos; len; t } ->
      ops [ reg r; string_of_int pos; string_of_int len; reg t ]
  | Shd { a; b; sa; t } -> ops [ reg a; reg b; string_of_int sa; reg t ]
  | Ldil { imm = v; t } -> ops [ Printf.sprintf "0x%lx" v; reg t ]
  | Ldo { imm = v; base; t } | Ldw { disp = v; base; t } ->
      ops [ imm v ^ "(" ^ reg base ^ ")"; reg t ]
  | Stw { r; disp; base } -> ops [ reg r; imm disp ^ "(" ^ reg base ^ ")" ]
  | Ldaddr { target; t } -> ops [ lbl target; reg t ]
  | Comb { a; b; target; _ } -> ops [ reg a; reg b; lbl target ]
  | Comib { imm = v; a; target; _ } | Addib { imm = v; a; target; _ } ->
      ops [ imm v; reg a; lbl target ]
  | B { target; _ } -> ops [ lbl target ]
  | Bl { target; t; _ } -> ops [ lbl target; reg t ]
  | Blr { x; t; _ } -> ops [ reg x; reg t ]
  | Bv { x; base; _ } -> ops [ reg x ^ "(" ^ reg base ^ ")" ]
  | Break { code } -> ops [ string_of_int code ]
  | Nop -> m
