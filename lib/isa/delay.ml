type stats = { branches : int; filled : int; nullified : int }

(* Instructions that may trap keep their program position so trap PCs and
   pre-trap architectural state stay exact. *)
let may_trap : type lbl. lbl Insn.t -> bool = function
  | Alu { trap_ov; _ } | Addi { trap_ov; _ } | Subi { trap_ov; _ } -> trap_ov
  | Ldw _ | Stw _ | Break _ -> true
  | _ -> false

let writes_real i =
  match Insn.writes i with
  | Some r when Reg.equal r Reg.r0 -> None
  | w -> w

(* May instruction [p] move into the delay slot of branch [b]? [q] is the
   item preceding [p] (its nullification shadow and fallthrough source). *)
let movable ~q ~p ~b =
  let ok_q =
    match q with
    | None | Some (Program.Label _) -> true
    | Some (Program.Insn qi) -> not (Insn.is_nullifier qi || Insn.is_branch qi)
  in
  ok_q
  && (not (Insn.is_branch p))
  && (not (Insn.is_nullifier p))
  && (not (may_trap p))
  && p <> Insn.Nop
  &&
  let br = Insn.reads b and pr = Insn.reads p in
  let bw = writes_real b and pw = writes_real p in
  (match pw with
  | Some w -> not (List.exists (Reg.equal w) br)
  | None -> true)
  && (match bw with
     | Some w ->
         (not (List.exists (Reg.equal w) pr))
         && not (match pw with Some w' -> Reg.equal w w' | None -> false)
     | None -> true)

(* Linking branches put their return point (or case table) two
   instructions ahead, so their slot must be materialised even when
   nothing fills it — otherwise the return would skip the instruction the
   simple-model code placed right after the call. *)
let needs_slot_insn : string Insn.t -> bool = function
  | Blr _ | Bl _ -> true
  | _ -> false

let transform ~fill (src : Program.source) : Program.source =
  let arr = Array.of_list src in
  let n = Array.length arr in
  (* claimed.(i): instruction i moves into the slot of the branch at i+1. *)
  let claimed = Array.make n false in
  if fill then
    for i = 0 to n - 1 do
      match arr.(i) with
      | Program.Insn b when Insn.is_branch b && i > 0 && not claimed.(i - 1) -> (
          match arr.(i - 1) with
          | Program.Insn p ->
              let q = if i >= 2 then Some arr.(i - 2) else None in
              if movable ~q ~p ~b then claimed.(i - 1) <- true
          | Program.Label _ -> ())
      | Program.Insn _ | Program.Label _ -> ()
    done;
  let out = ref [] in
  let emit item = out := item :: !out in
  Array.iteri
    (fun i item ->
      match item with
      | Program.Label _ -> emit item
      | Program.Insn insn when claimed.(i) -> ignore insn (* emitted after its branch *)
      | Program.Insn b when Insn.is_branch b ->
          let filled = i > 0 && claimed.(i - 1) in
          if filled then begin
            emit (Program.Insn (Insn.set_n false b));
            match arr.(i - 1) with
            | Program.Insn p -> emit (Program.Insn p)
            | Program.Label _ -> assert false
          end
          else begin
            emit (Program.Insn (Insn.set_n true b));
            if needs_slot_insn b then emit (Program.Insn Insn.Nop)
          end
      | Program.Insn _ -> emit item)
    arr;
  (* A trailing branch still fetches its slot: give it one. *)
  let ends_with_branch =
    match !out with
    | Program.Insn i :: _ -> Insn.is_branch i
    | _ -> false
  in
  if ends_with_branch then emit (Program.Insn Insn.Nop);
  List.rev !out

let naive src = transform ~fill:false src
let schedule src = transform ~fill:true src

let stats_of (src : Program.source) =
  List.fold_left
    (fun acc item ->
      match item with
      | Program.Insn i when Insn.is_branch i ->
          if Insn.get_n i then
            { acc with branches = acc.branches + 1; nullified = acc.nullified + 1 }
          else { acc with branches = acc.branches + 1; filled = acc.filled + 1 }
      | Program.Insn _ | Program.Label _ -> acc)
    { branches = 0; filled = 0; nullified = 0 }
    src
