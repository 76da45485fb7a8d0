let err addr fmt =
  Format.kasprintf (fun m -> Findings.v ~addr Findings.Delay_hazard m) fmt

let warn addr fmt =
  Format.kasprintf
    (fun m -> Findings.v ~severity:Findings.Warning ~addr Findings.Delay_hazard m)
    fmt

let check cfg =
  let prog = Cfg.program cfg in
  let n_insns = Program.length prog and insn = Program.insn prog in
  let out = ref [] in
  let emit f = out := f :: !out in
  (match (Cfg.options cfg).Cfg.mode with
  | Cfg.Simple ->
      for addr = 0 to n_insns - 1 do
        let i = insn addr in
        if Insn.is_branch i && Insn.get_n i then
          emit
            (warn addr
               "%s carries a ,n completer but the simple model has no delay \
                slot to nullify"
               (Insn.mnemonic i))
      done
  | Cfg.Delay_slot ->
      for addr = 0 to n_insns - 1 do
        let i = insn addr in
        if Insn.is_branch i then
          if addr + 1 >= n_insns then
            emit
              (warn addr
                 "trailing %s has no delay slot: its slot fetch runs off the \
                  image"
                 (Insn.mnemonic i))
          else if not (Insn.get_n i) then begin
            let slot = insn (addr + 1) in
            if Insn.is_branch slot then
              emit
                (err (addr + 1) "branch %s in the delay slot of %s"
                   (Insn.mnemonic slot) (Insn.mnemonic i));
            if Insn.is_nullifier slot then
              emit
                (err (addr + 1)
                   "nullifying %s in the delay slot of %s would annul the \
                    branch target" (Insn.mnemonic slot) (Insn.mnemonic i));
            if Delay.may_trap slot then
              emit
                (err (addr + 1)
                   "%s may trap inside the delay slot of %s, reporting the \
                    wrong PC" (Insn.mnemonic slot) (Insn.mnemonic i));
            if addr > 0 && Insn.is_nullifier (insn (addr - 1)) then
              emit
                (err addr
                   "filled branch %s sits in the shadow of nullifying %s: \
                    annulment would skip the branch but not its hoisted slot"
                   (Insn.mnemonic i)
                   (Insn.mnemonic (insn (addr - 1))))
          end
      done);
  List.rev !out
