(* Body-equivalence certifier.

   The W64 routines are too far from a closed algebraic form for the
   reciprocal/divide-step certifiers (their correctness argument is the
   normalization theorem plus the differential suite), so a served W64
   plan is certified the way a distribution is: by proving the program
   it executes IS the canonical library routine. The certifier walks
   both images in lockstep from the entry label — following branch
   targets, call targets and fall-through, so transitively called
   millicode is covered — requiring every instruction pair to be
   structurally identical and the branch-target correspondence to be a
   consistent map. A successful walk is a simulation argument: every
   execution of the candidate body is an execution of the canonical
   body, whose behaviour the differential suite pins against the
   two-word reference. *)

let no_fallthrough : int Insn.t -> bool = function
  | Insn.B _ | Insn.Bv _ | Insn.Blr _ | Insn.Break _ -> true
  | _ -> false

let is_return = function
  | Insn.Bv { x; base; n = _ } ->
      Reg.equal x Reg.r0 && (Reg.equal base Reg.rp || Reg.equal base Reg.mrp)
  | _ -> false

let certify ~canonical:lib ~entry prog =
  let canonical = Program.library_image lib in
  match (Program.symbol canonical entry, Program.symbol prog entry) with
  | None, _ -> Reciprocal.Unknown (Printf.sprintf "no canonical label %S" entry)
  | _, None -> Reciprocal.Unknown (Printf.sprintf "no label %S" entry)
  | Some c0, Some p0 -> (
      let nc = Program.length canonical and np = Program.length prog in
      (* Every canonical address the walk pairs is below [nc + 2^9]:
         targets and fall-through reach at most [nc], the slots of a
         bounded table (at most 2^8 of them) at most [nc + 2^9 - 2]. *)
      let span = nc + 512 in
      let map = Array.make span (-1) in
      let visited = Bytes.make span '\000' in
      let insns = ref 0 in
      let work = Queue.create () in
      let exception Stop of Reciprocal.verdict in
      let pair c p =
        match map.(c) with
        | -1 ->
            map.(c) <- p;
            Queue.add (c, p) work
        | p' when p' <> p ->
            raise
              (Stop
                 (Reciprocal.Refuted
                    (Printf.sprintf
                       "inconsistent target map: canonical +%d reached at both \
                        +%d and +%d"
                       c p' p)))
        | _ -> ()
      in
      try
        pair c0 p0;
        while not (Queue.is_empty work) do
          let c, p = Queue.pop work in
          if Bytes.get visited c = '\000' then begin
            Bytes.set visited c '\001';
            incr insns;
            if c >= nc || p < 0 || p >= np then
              raise
                (Stop
                   (Reciprocal.Unknown
                      (Printf.sprintf "walk left the image at +%d/+%d" c p)))
            else
              let ic = Program.insn canonical c and ip = Program.insn prog p in
              if not (Insn.equal (fun _ _ -> true) ic ip) then
                raise
                  (Stop
                     (Reciprocal.Refuted
                        (Printf.sprintf "+%d: %s differs from canonical %s" p
                           (Insn.mnemonic ip) (Insn.mnemonic ic))));
              (match ic with
              | Insn.Blr { x; n = false; t = _ }
                when Program.table_bound canonical c x <> None
                     && Program.fall_through_only lib c ->
                  (* A bounded vectored table: the adjacent extract
                     dominates the branch, so the index — equal in
                     both executions by the lockstep induction — is
                     below [2^len] and every slot can be paired. *)
                  let slots =
                    Option.get (Program.table_bound canonical c x)
                  in
                  for k = 0 to slots - 1 do
                    pair (c + 1 + (2 * k)) (p + 1 + (2 * k))
                  done
              | Insn.Ldaddr _ | Insn.Blr _ ->
                  (* A materialized code address or an unbounded
                     vectored table: the walk cannot bound where
                     control goes. *)
                  raise
                    (Stop
                       (Reciprocal.Unknown
                          (Printf.sprintf "+%d: %s is beyond the walk" c
                             (Insn.mnemonic ic))))
              | Insn.Bv _ when not (is_return ic) ->
                  raise
                    (Stop
                       (Reciprocal.Unknown
                          (Printf.sprintf "+%d: indirect branch" c)))
              | _ -> ());
              (match (Insn.target ic, Insn.target ip) with
              | Some tc, Some tp -> pair tc tp
              | None, None -> ()
              | _ ->
                  (* unreachable: Insn.equal matched the constructors *)
                  assert false);
              if not (no_fallthrough ic) then pair (c + 1) (p + 1)
          end
        done;
        let insns = !insns in
        Reciprocal.Certified
          (Certificate.v
             (Certificate.Body_equiv { entry; insns })
             [
               Printf.sprintf
                 "lockstep walk over %d reachable instructions from %S: every \
                  instruction equals its canonical counterpart under a \
                  consistent branch-target map"
                 insns entry;
               Printf.sprintf
                 "canonical behaviour is pinned by the W64 differential suite \
                  (boundary sweep, seeded sweep, QCheck, three engines)";
             ])
      with Stop v -> v)
