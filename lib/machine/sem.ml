(* The instruction semantics both translators specialise: see sem.mli.

   Every form reads its sources as values and writes its target through
   an (array, index) operand, so the same [@inline] function compiles
   to a scalar register-file update in {!Engine} and to one lane's
   update in {!Engine_batch}. Arithmetic forms take [~trap] as a
   literal at each call site; after inlining, the overflow test of a
   non-trapping form folds away. *)

let u32 = 0xffff_ffff
let sign = 0x8000_0000
let[@inline] sext x = (x lxor sign) - sign
let sink = 32
let src rg = Reg.to_int rg
let dst rg = match Reg.to_int rg with 0 -> sink | i -> i
let imm (x : int32) = Int32.to_int x land u32
let[@inline] wrap x = x land u32

(* Signed 32-bit overflow of [x + y = s] and [x - y = s] on the
   unsigned representation. *)
let[@inline] add_ov x y s =
  (x lxor y) land sign = 0 && (x lxor s) land sign <> 0

let[@inline] sub_ov x y s =
  (x lxor y) land sign <> 0 && (x lxor s) land sign <> 0

let[@inline] out_of_word w = w < -0x8000_0000 || w > 0x7fff_ffff

type psw = { mutable carry : bool; mutable v : bool }

let[@inline] add ~trap x y rd d p =
  let w = x + y in
  p.carry <- w > u32;
  p.v <- false;
  let s = w land u32 in
  if trap && add_ov x y s then true
  else begin
    rd.(d) <- s;
    false
  end

let[@inline] addc ~trap x y rd d p =
  let ci = if p.carry then 1 else 0 in
  let w = x + y + ci in
  p.carry <- w > u32;
  if trap && out_of_word (sext x + sext y + ci) then true
  else begin
    rd.(d) <- w land u32;
    false
  end

let[@inline] sub ~trap x y rd d p =
  let w = x - y in
  p.carry <- w >= 0;
  p.v <- false;
  let s = w land u32 in
  if trap && sub_ov x y s then true
  else begin
    rd.(d) <- s;
    false
  end

let[@inline] subb ~trap x y rd d p =
  let bw = if p.carry then 0 else 1 in
  let w = x - y - bw in
  p.carry <- w >= 0;
  if trap && out_of_word (sext x - sext y - bw) then true
  else begin
    rd.(d) <- w land u32;
    false
  end

(* §4's cheap circuit: the k+1 top bits of [x] must be sign copies, and
   the 32-bit add of the shifted value must not overflow itself. *)
let[@inline] shadd ~trap k x y rd d p =
  let shifted = (x lsl k) land u32 in
  let w = shifted + y in
  p.carry <- w > u32;
  let s = w land u32 in
  if
    trap
    && (let top = sext x asr (31 - k) in
        (top <> 0 && top <> -1) || add_ov shifted y s)
  then true
  else begin
    rd.(d) <- s;
    false
  end

let[@inline] andcm x y = x land lnot y land u32

(* One non-restoring divide step; the 33/34-bit partial remainder fits
   in the native int. *)
let[@inline] ds x y rd d p =
  let vb = p.v in
  let r = x - (if vb then 0x1_0000_0000 else 0) in
  let r2 = (2 * r) + (if p.carry then 1 else 0) in
  let r' = if vb then r2 + y else r2 - y in
  p.v <- r' < 0;
  p.carry <- r' >= 0;
  rd.(d) <- r' land u32

let[@inline] comclr f x y rd d =
  rd.(d) <- 0;
  f x y

let[@inline] extru ~pos ~len x = (x lsr pos) land ((1 lsl len) - 1)

let[@inline] extrs ~pos ~len x =
  sext ((x lsl (32 - pos - len)) land u32) asr (32 - len) land u32

let[@inline] zdep ~pos ~len x = ((x land ((1 lsl len) - 1)) lsl pos) land u32
let[@inline] shd ~sa x y = ((x lsl (32 - sa)) lor (y lsr sa)) land u32

let[@inline] mem_ok ~words addr = addr land 3 = 0 && addr lsr 2 < words

let mem_fault addr =
  if addr land 3 <> 0 then Trap.Unaligned (Int32.of_int addr)
  else Trap.Bad_address (Int32.of_int addr)

let[@inline] addib f x y rd d =
  let s = (x + y) land u32 in
  rd.(d) <- s;
  f s 0

let[@inline] blr ~pc rx x rd d =
  rd.(d) <- pc + 1;
  pc + 1 + (2 * rx.(x))

let[@inline] bv x base = (base + ((2 * x) land u32)) land u32
let halt = u32
let[@inline] in_image len target = target >= 0 && target < len

let cond_fn (c : Cond.t) : int -> int -> bool =
  match c with
  | Never -> fun _ _ -> false
  | Always -> fun _ _ -> true
  | Eq -> fun a b -> a = b
  | Neq -> fun a b -> a <> b
  | Lt -> fun a b -> sext a < sext b
  | Le -> fun a b -> sext a <= sext b
  | Gt -> fun a b -> sext b < sext a
  | Ge -> fun a b -> sext b <= sext a
  | Ult -> fun a b -> a < b
  | Ule -> fun a b -> a <= b
  | Ugt -> fun a b -> b < a
  | Uge -> fun a b -> b <= a
  | Odd -> fun a b -> (a - b) land 1 = 1
  | Even -> fun a b -> (a - b) land 1 = 0

let intern_mnemonics code =
  let ids : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let rev_names = ref [] in
  let intern m =
    match Hashtbl.find_opt ids m with
    | Some id -> id
    | None ->
        let id = Hashtbl.length ids in
        Hashtbl.add ids m id;
        rev_names := m :: !rev_names;
        id
  in
  let mid = Array.map (fun i -> intern (Insn.mnemonic i)) code in
  (mid, Array.of_list (List.rev !rev_names))

type ('b, 't) compiled = Body of 'b | Term of 't
type 't threaded = { ops : 't array; blocks : 't array; blen : int array }

(* Built backwards so each body tail-calls straight into its
   successor's block. *)
let thread len compile ~dummy ~step ~chain =
  let ops = Array.make len dummy and blocks = Array.make len dummy in
  let blen = Array.make len 1 in
  for pc = len - 1 downto 0 do
    match compile pc with
    | Term f ->
        ops.(pc) <- f;
        blocks.(pc) <- f
    | Body b ->
        ops.(pc) <- step pc b;
        if pc = len - 1 then blocks.(pc) <- ops.(pc)
        else begin
          blocks.(pc) <- chain b blocks.(pc + 1);
          blen.(pc) <- blen.(pc + 1) + 1
        end
  done;
  { ops; blocks; blen }
