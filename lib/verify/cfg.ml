type mode = Simple | Delay_slot
type options = { mode : mode; blr_slots : int }

let default = { mode = Simple; blr_slots = 16 }
let delay = { mode = Delay_slot; blr_slots = 16 }

type spec = {
  name : string;
  args : Reg.t list;
  results : Reg.t list;
  clobbers : Reg.t list;
}

let scratch =
  [
    Reg.arg0; Reg.arg1; Reg.arg2; Reg.arg3; Reg.ret0; Reg.ret1; Reg.t1;
    Reg.t2; Reg.t3; Reg.t4; Reg.t5; Reg.mrp;
  ]

let default_spec name =
  { name; args = [ Reg.arg0; Reg.arg1 ]; results = [ Reg.ret0 ]; clobbers = scratch }

type dest = Addrs of int list | Call of int | Exit
type node = Insn of int | Slot of int * dest | Summary of int | Tail of int * int
type edge = Step of node | Ret | Trap | Off_image | Indirect

type t = {
  opts : options;
  prog : Program.resolved;
  specs : (string * spec) list;
  entry_addrs : (int, unit) Hashtbl.t;  (** addresses of declared entries *)
  jumped_into : Bytes.t;
      (** can control arrive here other than by fall-through from the
          previous instruction? (label, branch target, BLR slot, or
          nullifier skip) *)
}

let make ?(specs = []) opts prog =
  let n = Program.length prog in
  let entry_addrs = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match Program.symbol prog s.name with
      | Some a -> Hashtbl.replace entry_addrs a ()
      | None -> ())
    specs;
  let jumped_into = Bytes.make n '\000' in
  let mark a = if a >= 0 && a < n then Bytes.set jumped_into a '\001' in
  Program.iter_symbols (fun _ a -> mark a) prog;
  for addr = 0 to n - 1 do
    let i = Program.insn prog addr in
    (match Insn.target i with Some a -> mark a | None -> ());
    (match (i : int Insn.t) with
    | Blr _ ->
        let base = match opts.mode with Simple -> addr + 1 | Delay_slot -> addr + 2 in
        for k = 0 to opts.blr_slots - 1 do
          mark (base + (2 * k))
        done
    | Bl _ ->
        mark (match opts.mode with Simple -> addr + 1 | Delay_slot -> addr + 2)
    | _ -> ());
    if Insn.is_nullifier i then mark (addr + 2)
  done;
  { opts; prog; specs = List.map (fun s -> (s.name, s)) specs; entry_addrs; jumped_into }

let options t = t.opts
let program t = t.prog
let length t = Program.length t.prog
let insn t addr = Program.insn t.prog addr

let addr_of = function
  | Insn a | Slot (a, _) -> Some a
  | Tail (site, _) -> Some site
  | Summary _ -> None

let spec_at t addr =
  let name =
    match Program.name_at t.prog addr with
    | Some n -> n
    | None -> "<anon>"
  in
  match List.assoc_opt name t.specs with
  | Some s -> s
  | None -> default_spec name

(* The address a [Summary c] resumes at: where the BL at [c] linked to. *)
let return_addr t c = match t.opts.mode with Simple -> c + 1 | Delay_slot -> c + 2

(* The callee entry of the BL at [c]. *)
let callee t c =
  match insn t c with
  | Insn.Bl { target; _ } -> target
  | _ -> invalid_arg "Cfg: Summary node not at a BL"

let link_reg t c =
  match insn t c with
  | Insn.Bl { t = link; _ } -> link
  | _ -> invalid_arg "Cfg: Summary node not at a BL"

let step_to t a = if a >= 0 && a < length t then Step (Insn a) else Off_image

(* A taken-branch landing site: a declared entry becomes a tail call. *)
let land_at t ~site a =
  if a >= 0 && a < length t then
    if Hashtbl.mem t.entry_addrs a then Step (Tail (site, a)) else Step (Insn a)
  else Off_image

(* Where a taken branch at [addr] with completer [n] and destination [d]
   transfers: directly in simple mode or with a nullified slot, through the
   slot node otherwise. *)
let taken t addr n (d : dest) : edge list =
  let direct () =
    match d with
    | Addrs l -> List.map (land_at t ~site:addr) l
    | Call c -> [ Step (Summary c) ]
    | Exit -> [ Ret ]
  in
  match t.opts.mode with
  | Simple -> direct ()
  | Delay_slot ->
      if n then direct ()
      else if addr + 1 < length t then [ Step (Slot (addr + 1, d)) ]
      else [ Off_image ]

let is_return_bv x base =
  Reg.equal x Reg.r0 && (Reg.equal base Reg.rp || Reg.equal base Reg.mrp)

let blr_dests t addr =
  let base = match t.opts.mode with Simple -> addr + 1 | Delay_slot -> addr + 2 in
  let rec go k acc =
    if k >= t.opts.blr_slots then List.rev acc
    else
      let d = base + (2 * k) in
      go (k + 1) (if d < length t then d :: acc else acc)
  in
  go 0 []

(* The guaranteed-trap idiom: [LDIL k,r; ADDO r,r,r0] with [k+k]
   overflowing. Recognised only when control cannot enter between the
   pair, so the constant is certain. *)
let guaranteed_trap t addr =
  match insn t addr with
  | Insn.Alu { op = Insn.Add; a; b; trap_ov = true; _ }
    when addr > 0 && Reg.equal a b && Bytes.get t.jumped_into addr = '\000' -> (
      match insn t (addr - 1) with
      | Insn.Ldil { imm; t = r } ->
          Reg.equal r a && Hppa_word.Word.add_overflows_s imm imm
      | _ -> false)
  | _ -> false

let succs_insn t addr (i : int Insn.t) : edge list =
  if guaranteed_trap t addr then [ Trap ]
  else
    match i with
  | Comb { target; n; _ } | Comib { target; n; _ } | Addib { target; n; _ } ->
      taken t addr n (Addrs [ target ]) @ [ step_to t (addr + 1) ]
  | B { target; n } -> taken t addr n (Addrs [ target ])
  | Bl { n; _ } -> taken t addr n (Call addr)
  | Blr { n; _ } -> taken t addr n (Addrs (blr_dests t addr))
  | Bv { x; base; n } ->
      if is_return_bv x base then taken t addr n Exit else [ Indirect ]
  | Break _ -> [ Trap ]
  | _ ->
      if Insn.is_nullifier i then
        (* may annul the next instruction: fall through to it, or skip it *)
        [ step_to t (addr + 1); step_to t (addr + 2) ]
      else [ step_to t (addr + 1) ]

let succs t = function
  | Insn addr -> succs_insn t addr (insn t addr)
  | Slot (a, d) -> (
      match d with
      | Addrs l -> List.map (land_at t ~site:a) l
      | Call c -> [ Step (Summary c) ]
      | Exit -> [ Ret ])
  | Summary c -> [ step_to t (return_addr t c) ]
  | Tail _ -> [ Ret ]

let reads t = function
  | Insn a | Slot (a, _) -> Insn.reads_distinct (insn t a)
  | Summary c ->
      let s = spec_at t (callee t c) in
      let link = link_reg t c in
      if List.exists (Reg.equal link) s.args then s.args else s.args @ [ link ]
  | Tail (_, callee) -> (spec_at t callee).args

let writes_real i =
  match Insn.writes i with
  | Some r when Reg.equal r Reg.r0 -> None
  | w -> w

let defines t = function
  | Insn a | Slot (a, _) -> (
      match writes_real (insn t a) with Some r -> [ r ] | None -> [])
  | Summary c -> (spec_at t (callee t c)).results
  | Tail (_, callee) -> (spec_at t callee).results

let unspecifies t = function
  | Insn _ | Slot _ -> []
  | Summary c ->
      let s = spec_at t (callee t c) in
      List.filter (fun r -> not (List.exists (Reg.equal r) s.results)) s.clobbers
  | Tail (_, callee) ->
      let s = spec_at t callee in
      List.filter (fun r -> not (List.exists (Reg.equal r) s.results)) s.clobbers

let reachable t ~entries =
  let seen = Hashtbl.create 256 in
  let order = ref [] in
  let rec visit n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      order := n :: !order;
      List.iter (function Step n' -> visit n' | _ -> ()) (succs t n)
    end
  in
  List.iter (fun a -> if a >= 0 && a < length t then visit (Insn a)) entries;
  List.rev !order

type block = { id : int; nodes : node list; succ : int list; exits : edge list }

let blocks t ~entries =
  let nodes = reachable t ~entries in
  let preds = Hashtbl.create 256 in
  let bump n = Hashtbl.replace preds n (1 + Option.value ~default:0 (Hashtbl.find_opt preds n)) in
  List.iter
    (fun n -> List.iter (function Step n' -> bump n' | _ -> ()) (succs t n))
    nodes;
  let entry_nodes = List.filter_map (fun a -> if a >= 0 && a < length t then Some (Insn a) else None) entries in
  let is_leader n =
    List.exists (( = ) n) entry_nodes
    || Option.value ~default:0 (Hashtbl.find_opt preds n) <> 1
  in
  (* a node also leads if its unique predecessor branches *)
  let forced = Hashtbl.create 64 in
  List.iter
    (fun n ->
      let ss = succs t n in
      let steps = List.filter_map (function Step s -> Some s | _ -> None) ss in
      if List.length steps > 1 || List.length ss > List.length steps then
        List.iter (fun s -> Hashtbl.replace forced s ()) steps)
    nodes;
  let is_leader n = is_leader n || Hashtbl.mem forced n in
  let leaders = List.filter is_leader nodes in
  let id_of = Hashtbl.create 64 in
  List.iteri (fun i l -> Hashtbl.replace id_of l i) leaders;
  let block_of leader id =
    let rec chase n acc =
      let ss = succs t n in
      match ss with
      | [ Step s ] when not (Hashtbl.mem id_of s) -> chase s (s :: acc)
      | _ ->
          let succ =
            List.filter_map
              (function Step s -> Hashtbl.find_opt id_of s | _ -> None)
              ss
          and exits = List.filter (function Step _ -> false | _ -> true) ss in
          { id; nodes = List.rev acc; succ; exits }
    in
    chase leader [ leader ]
  in
  List.mapi (fun i l -> block_of l i) leaders

let pp_node t ppf n =
  let pp_insn a = Insn.pp Format.pp_print_int ppf (insn t a) in
  match n with
  | Insn a ->
      Format.fprintf ppf "%4d: " a;
      pp_insn a
  | Slot (a, _) ->
      Format.fprintf ppf "%4d: " a;
      pp_insn a;
      Format.fprintf ppf "  ; delay slot"
  | Summary c ->
      let callee = callee t c in
      Format.fprintf ppf "      call %s  ; summary" (spec_at t callee).name
  | Tail (site, callee) ->
      Format.fprintf ppf "%4d: tail call %s  ; summary" site (spec_at t callee).name

let pp_blocks t ppf bs =
  List.iter
    (fun b ->
      Format.fprintf ppf "block %d -> [%a]%s@."
        b.id
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
           Format.pp_print_int)
        b.succ
        (if b.exits = [] then ""
         else
           " exits:"
           ^ String.concat ","
               (List.map
                  (function
                    | Ret -> "ret"
                    | Trap -> "trap"
                    | Off_image -> "off-image"
                    | Indirect -> "indirect"
                    | Step _ -> assert false)
                  b.exits));
      List.iter (fun n -> Format.fprintf ppf "  %a@." (pp_node t) n) b.nodes)
    bs
