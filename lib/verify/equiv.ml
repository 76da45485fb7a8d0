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

(* [Some 2^len] when the instruction before the [blr] at [addr] is a
   plain unconditional unsigned extract into the index register — the
   only vectored-table shape whose index the walk can bound. *)
let bounded_index img addr x =
  if addr <= 0 || addr > Program.length img then None
  else
    match Program.insn img (addr - 1) with
    | Insn.Extr { signed = false; r = _; pos = _; len; t; cond = Cond.Never }
      when Reg.equal t x && len >= 1 && len <= 8 ->
        Some (1 lsl len)
    | _ -> None

(* The bounded-index argument needs the [extru] to dominate its [blr]:
   control must only arrive at the branch by falling through the
   extract. [marks img] answers that per address by marking everything
   control can reach some other way — labels, branch targets,
   call-return points, vectored-table slots (the whole image tail for a
   table the certifier cannot bound) and nullifier skips — mirroring
   the marking in {!Cfg.make}. *)
let marks img =
  let n = Program.length img in
  let marks = Bytes.make n '\000' in
  let mark a = if a >= 0 && a < n then Bytes.set marks a '\001' in
  Program.iter_symbols (fun _ a -> mark a) img;
  for addr = 0 to n - 1 do
    let i = Program.insn img addr in
    (match Insn.target i with Some a -> mark a | None -> ());
    (match (i : int Insn.t) with
    | Insn.Blr { x; _ } ->
        let slots =
          match bounded_index img addr x with
          | Some k -> k
          | None -> ((n - addr) / 2) + 1
        in
        for k = 0 to slots - 1 do
          mark (addr + 1 + (2 * k))
        done
    | Insn.Bl _ -> mark (addr + 1)
    | _ -> ());
    if Delay.is_nullifier i then mark (addr + 2)
  done;
  marks

(* The marks of the canonical images certified against, computed once
   per image: images are immutable, so they are keyed by identity. At
   most [marks_cap] are kept, under a lock: shard domains certify
   concurrently. *)
let marks_cap = 8

let memo_marks =
  let lock = Mutex.create () and memo = ref [] in
  fun img ->
    Mutex.protect lock (fun () ->
        match List.assq_opt img !memo with
        | Some m -> m
        | None ->
            let m = marks img in
            memo := (img, m) :: List.filteri (fun i _ -> i < marks_cap - 1) !memo;
            m)

let fall_through_only img =
  let marks = memo_marks img in
  fun a -> a >= 0 && a < Bytes.length marks && Bytes.get marks a = '\000'

let is_return = function
  | Insn.Bv { x; base; n = _ } ->
      Reg.equal x Reg.r0 && (Reg.equal base Reg.rp || Reg.equal base Reg.mrp)
  | _ -> false

let certify ~canonical ~entry prog =
  match (Program.symbol canonical entry, Program.symbol prog entry) with
  | None, _ -> Reciprocal.Unknown (Printf.sprintf "no canonical label %S" entry)
  | _, None -> Reciprocal.Unknown (Printf.sprintf "no label %S" entry)
  | Some c0, Some p0 -> (
      let dominated = fall_through_only canonical in
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
                when bounded_index canonical c x <> None
                     && dominated c ->
                  (* A bounded vectored table: the adjacent extract
                     dominates the branch, so the index — equal in
                     both executions by the lockstep induction — is
                     below [2^len] and every slot can be paired. *)
                  let slots =
                    Option.get (bounded_index canonical c x)
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
