(* Reply payloads for the plan-producing requests. Everything here
   must be a pure function of the request (plus the fuel bound), because
   cached replies are compared byte-for-byte against recomputed ones.

   MUL and DIV dispatch through the kernel-strategy selector (lib/plan);
   the payload is rendered from the planner record the chosen emission
   carries, which is the very record this module used to compute
   directly — so routing through the selector changes which strategy is
   *recorded* (the artifact, the hppa_plan_* metrics), never the reply
   bytes. *)

module Word = Hppa_word.Word
module Machine = Hppa_machine.Machine
module Strategy = Hppa_plan.Strategy
module Selector = Hppa_plan.Selector
module Certificate = Hppa_verify.Certificate
open Hppa

type artifact = {
  strategy : string;
  entry : string;
  static_instructions : int;
  score : int;
  digest : string option;
  cert_kind : string option;
  cert_digest : string option;
}

let render_artifact a =
  Printf.sprintf "strategy=%s entry=%s insns=%d score=%d digest=%s cert=%s"
    a.strategy a.entry a.static_instructions a.score
    (Option.value a.digest ~default:"-")
    (match (a.cert_kind, a.cert_digest) with
    | Some k, Some d -> Printf.sprintf "%s:%s" k d
    | _ -> "-")

let artifact_of_choice (c : Selector.choice) =
  {
    strategy = c.Selector.chosen.Strategy.name;
    entry = c.Selector.emission.Strategy.entry;
    static_instructions = c.Selector.emission.Strategy.static_instructions;
    score = c.Selector.cost.Strategy.score;
    digest = Result.to_option (Strategy.digest c.Selector.emission);
    cert_kind =
      Option.map
        (fun (cert : Certificate.t) ->
          Certificate.kind_label cert.Certificate.kind)
        c.Selector.certificate;
    cert_digest =
      Option.map
        (fun (cert : Certificate.t) -> cert.Certificate.digest)
        c.Selector.certificate;
  }

let squash s =
  String.trim
    (String.map (function '\n' | '\r' | '\t' -> ' ' | c -> c) s)

let render_source (src : Program.source) =
  String.concat " | "
    (List.map
       (function
         | Program.Label l -> l ^ ":"
         | Program.Insn i ->
             squash (Insn.to_string Fun.id i))
       src)

let render_chain (c : Chain.t) =
  (* Compact one-line form of the paper's "a2 = 4*a1 + a1" notation. *)
  String.concat ";"
    (List.mapi
       (fun i step ->
         let e = i + 2 in
         match step with
         | Chain.Add (j, k) -> Printf.sprintf "a%d=a%d+a%d" e j k
         | Chain.Shadd (m, j, k) ->
             Printf.sprintf "a%d=%d*a%d+a%d" e (1 lsl m) j k
         | Chain.Sub (j, k) -> Printf.sprintf "a%d=a%d-a%d" e j k
         | Chain.Shl (j, m) -> Printf.sprintf "a%d=a%d<<%d" e j m)
       c)

let mul_payload (plan : Mul_const.plan) =
  let chain_str =
    match plan.chain with None -> "-" | Some c -> render_chain c
  in
  let steps = match plan.chain with None -> 0 | Some c -> Chain.length c in
  Printf.sprintf
    "MUL n=%ld steps=%d insns=%d cycles=%d temps=%d overflow_safe=%b \
     chain=%s code=%s"
    plan.multiplier steps plan.static_instructions plan.static_instructions
    plan.temporaries
    (match plan.chain with
    | Some c -> Chain.is_overflow_safe c
    | None -> false)
    chain_str
    (render_source plan.source)

let mul ?obs ?require_certified n =
  match Selector.choose ?obs ?require_certified (Strategy.mul_const n) with
  | Ok choice ->
      let plan =
        (* The chain strategy's emission wraps the planner record; a
           call-through winner (huge chain) still renders the chain plan
           the reply always carried. *)
        match choice.Selector.emission.Strategy.detail with
        | Strategy.Mul_plan p -> p
        | Strategy.Div_plan _ | Strategy.Millicode _ | Strategy.Pair_chain _ ->
            Mul_const.plan n
      in
      Ok (mul_payload plan, artifact_of_choice choice)
  | Error detail -> Error ("plan " ^ detail)

let rec render_strategy = function
  | Div_const.Trivial -> "trivial"
  | Div_const.Power_of_two k -> Printf.sprintf "shift:%d" k
  | Div_const.Reciprocal (m, ch) ->
      Printf.sprintf "reciprocal:z=2^%d,a=%Ld,b=%Ld,chain=%d" m.Div_magic.s
        m.Div_magic.a m.Div_magic.b (Chain.length ch)
  | Div_const.Even_split (k, s) ->
      Printf.sprintf "even_split:%d+%s" k (render_strategy s)
  | Div_const.General_fallback -> "general_divU"

let div_payload (plan : Div_const.plan) =
  Printf.sprintf
    "DIV d=%ld signed=%b strategy=%s insns=%d cycles=%d needs_millicode=%b \
     code=%s"
    plan.divisor plan.signed
    (render_strategy plan.strategy)
    plan.static_instructions plan.static_instructions
    (Div_const.needs_millicode plan)
    (render_source plan.source)

let div ?obs ?require_certified d =
  if d = 0l then Error "range division by zero"
  else
    let signedness = if d > 0l then Strategy.Unsigned else Strategy.Signed in
    let req = Strategy.div_const signedness d in
    match Selector.choose ?obs ?require_certified req with
    | Ok choice ->
        let plan =
          (* A call-through winner renders the plan the selector costed. *)
          match choice.Selector.emission.Strategy.detail with
          | Strategy.Div_plan p -> p
          | Strategy.Mul_plan _ | Strategy.Millicode _ | Strategy.Pair_chain _
            ->
              Strategy.div_const_plan req d
        in
        Ok (div_payload plan, artifact_of_choice choice)
    | Error detail -> Error ("plan " ^ detail)

(* The served run-time-operand kernels (Hppa_w64.kernels): the reply
   names the row's millicode entry and carries the executed result
   dwords. The selector still picks, counts and certifies the row's
   millicode strategy, whose emission is a tail-call wrapper onto that
   same entry; the pooled machine holds the full millicode library, so
   calling the entry directly is the same computation. *)
let render ~fuel (k : Hppa_w64.kernel) ~signed dwords outcome cycles =
  let entry = Hppa_w64.kernel_entry k ~signed in
  match (outcome : Hppa_w64.outcome) with
  | Hppa_w64.Value { ret; arg } ->
      let fields = List.combine k.args dwords @ k.unpack ~ret ~arg in
      let tag = if k.tagged then [ Printf.sprintf "signed=%b" signed ] else [] in
      Ok
        (String.concat " "
           ((k.verb :: tag)
           @ List.map (fun (name, v) -> Printf.sprintf "%s=%Ld" name v) fields
           @ [ Printf.sprintf "cycles=%d entry=%s" cycles entry ]))
  | Hppa_w64.Trap t ->
      Error
        (Printf.sprintf "trap %s: %s" entry (Hppa_machine.Trap.to_string t))
  | Hppa_w64.Fuel ->
      Error (Printf.sprintf "fuel %s exceeded %d cycles" entry fuel)

(* One selector choice for the row, then one scalar run for a single
   lane or one Machine.Batch SoA dispatch for two or more. Per-lane
   batch cycles equal the scalar engine's call_cycles delta on a reset
   machine (pinned by the batch differential suite), so both paths
   render the same bytes. *)
let run ?obs ?require_certified mach ~fuel (k : Hppa_w64.kernel) ~signed lanes =
  let signedness = if signed then Strategy.Signed else Strategy.Unsigned in
  match lanes with
  | [] -> []
  | _ -> (
      match
        Selector.choose ?obs ?require_certified (Strategy.w64_run k signedness)
      with
      | Error detail -> List.map (fun _ -> Error ("plan " ^ detail)) lanes
      | Ok choice -> (
          let artifact = artifact_of_choice choice in
          let reply dwords (outcome, cycles) =
            Result.map
              (fun payload -> (payload, artifact))
              (render ~fuel k ~signed dwords outcome cycles)
          in
          match lanes with
          | [ dwords ] ->
              Machine.reset mach;
              [
                reply dwords (Hppa_w64.call_cycles ~fuel mach k ~signed dwords);
              ]
          | _ ->
              let b =
                Machine.Batch.create ~lanes:(List.length lanes)
                  (Machine.program mach)
              in
              Machine.Batch.call ~fuel b
                (Hppa_w64.kernel_entry k ~signed)
                ~args:(Array.of_list (List.map k.pack lanes));
              List.mapi
                (fun lane dwords ->
                  reply dwords
                    ( Hppa_w64.batch_outcome b ~lane,
                      Machine.Batch.cycles b ~lane ))
                lanes))

let w64 ?obs ?require_certified mach ~fuel op ~signed x y =
  List.hd
    (run ?obs ?require_certified mach ~fuel (Hppa_w64.of_op op) ~signed
       [ [ x; y ] ])

let divl ?obs ?require_certified mach ~fuel ~xhi ~xlo y =
  List.hd
    (run ?obs ?require_certified mach ~fuel Hppa_w64.divl ~signed:false
       [ [ xhi; xlo; y ] ])

let eval mach ~fuel entry args =
  if not (List.mem entry Millicode.entries) then
    Error (Printf.sprintf "entry unknown millicode entry \"%s\"" entry)
  else begin
    Machine.reset mach;
    match Machine.call_cycles ~fuel mach entry ~args with
    | Machine.Halted, cycles ->
        Ok
          (Printf.sprintf "EVAL entry=%s ret0=%ld ret1=%ld cycles=%d engine=%b"
             entry (Machine.get mach Reg.ret0) (Machine.get mach Reg.ret1)
             cycles (Machine.used_engine mach))
    | Machine.Trapped t, _ ->
        Error
          (Printf.sprintf "trap %s: %s" entry
             (Hppa_machine.Trap.to_string t))
    | Machine.Fuel_exhausted, _ ->
        Error (Printf.sprintf "fuel %s exceeded %d cycles" entry fuel)
  end
