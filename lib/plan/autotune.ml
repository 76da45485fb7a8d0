module Word = Hppa_word.Word
module Obs = Hppa_obs.Obs
module Machine = Hppa_machine.Machine
module Trap = Hppa_machine.Trap
module Dist = Hppa_dist.Operand_dist
module Prng = Hppa_dist.Prng

type workload =
  | Figure5 of { samples : int; seed : int64 }
  | Log_uniform of { samples : int; seed : int64 }
  | Small_divisors of { samples : int; seed : int64 }
  | Fixed of (Word.t * Word.t) list
  | Uniform64 of { samples : int; seed : int64 }
  | Zipf64 of { samples : int; seed : int64 }
  | Hw0 of { samples : int; seed : int64 }

(* FNV-1a over the operand words: Fixed workloads get a content-derived
   tag so the store key does not depend on list identity. *)
let fixed_hash pairs =
  let h = ref 0xcbf29ce484222325L in
  let mix w =
    for shift = 0 to 3 do
      let byte = Int32.to_int (Int32.shift_right_logical w (8 * shift)) land 0xff in
      h := Int64.mul (Int64.logxor !h (Int64.of_int byte)) 0x100000001b3L
    done
  in
  List.iter (fun (x, y) -> mix x; mix y) pairs;
  Printf.sprintf "%016Lx" !h

let workload_tag = function
  | Figure5 { samples; seed } -> Printf.sprintf "figure5:%d:%Ld" samples seed
  | Log_uniform { samples; seed } ->
      Printf.sprintf "loguniform:%d:%Ld" samples seed
  | Small_divisors { samples; seed } ->
      Printf.sprintf "smalldiv:%d:%Ld" samples seed
  | Fixed pairs -> Printf.sprintf "fixed:%d:%s" (List.length pairs) (fixed_hash pairs)
  | Uniform64 { samples; seed } -> Printf.sprintf "uniform64:%d:%Ld" samples seed
  | Zipf64 { samples; seed } -> Printf.sprintf "zipf64:%d:%Ld" samples seed
  | Hw0 { samples; seed } -> Printf.sprintf "hw0:%d:%Ld" samples seed

let is_w64_workload = function
  | Uniform64 _ | Zipf64 _ | Hw0 _ -> true
  | Figure5 _ | Log_uniform _ | Small_divisors _ | Fixed _ -> false

let raw_pairs = function
  | Uniform64 _ | Zipf64 _ | Hw0 _ -> []
  | Fixed pairs -> pairs
  | Figure5 { samples; seed } ->
      let prng = Prng.create seed in
      List.init samples (fun _ -> Dist.figure5_pair prng)
  | Log_uniform { samples; seed } ->
      let prng = Prng.create seed in
      List.init samples (fun _ ->
          let x = Dist.log_uniform prng in
          let y = Dist.log_uniform prng in
          (x, y))
  | Small_divisors { samples; seed } ->
      let prng = Prng.create seed in
      List.init samples (fun _ ->
          let x = Dist.log_uniform prng in
          let y = Dist.small_divisor prng in
          (x, y))

let operands workload (req : Strategy.request) =
  let divide = req.op = Div || req.op = Rem in
  raw_pairs workload
  |> List.map (fun (x, y) ->
         match req.operand with
         | Strategy.Constant c -> (x, c)
         | Strategy.Constant64 _ -> (x, y) (* unreachable: W32-guarded *)
         | Strategy.Variable ->
             if divide && Word.equal y 0l then (x, Word.one) else (x, y))

(* 64-bit pairs: the 64-bit workloads generate them directly; the 32-bit
   workloads zero-extend (covering the degenerate high-word-zero path of
   the W64 routines). *)
let raw_pairs64 = function
  | Uniform64 { samples; seed } ->
      let prng = Prng.create seed in
      List.init samples (fun _ ->
          let x = Dist.uniform64 prng in
          let y = Dist.uniform64 prng in
          (x, y))
  | Zipf64 { samples; seed } ->
      let prng = Prng.create seed in
      List.init samples (fun _ ->
          let x = Dist.log_uniform64 prng in
          let y = Dist.zipf64_divisor prng in
          (x, y))
  | Hw0 { samples; seed } ->
      let prng = Prng.create seed in
      List.init samples (fun _ -> Dist.w64_pair prng)
  | (Figure5 _ | Log_uniform _ | Small_divisors _ | Fixed _) as w ->
      raw_pairs w
      |> List.map (fun (x, y) -> (Word.to_int64_u x, Word.to_int64_u y))

(* Resolved argument lists for one call, with a label for error
   messages: one or two words for W32, the two (hi:lo) register pairs
   for W64. *)
let operand_lists workload (req : Strategy.request) =
  match req.width with
  | Strategy.W32 -> (
      match req.operand with
      | Strategy.Constant64 _ -> Error "64-bit constant requires a w64 request"
      | Strategy.Constant _ | Strategy.Variable ->
          if is_w64_workload workload then
            Error "64-bit workload requires a w64 request"
          else
            Ok
              (operands workload req
              |> List.map (fun (x, y) ->
                     let args =
                       match req.operand with
                       | Strategy.Constant _ | Strategy.Constant64 _ -> [ x ]
                       | Strategy.Variable -> [ x; y ]
                     in
                     (args, Printf.sprintf "x=%ld y=%ld" x y))))
  | Strategy.W64 ->
      let divide =
        match req.op with Div | Rem | Divl -> true | Mul -> false
      in
      Ok
        (raw_pairs64 workload
        |> List.map (fun (x, y) ->
               let y = if divide && Int64.equal y 0L then 1L else y in
               match (req.op, req.operand) with
               | Strategy.Divl, _ ->
                   (* keep the quotient representable: the dividend's
                      high dword reduced below the divisor *)
                   let xhi = Int64.unsigned_rem x y in
                   ( Hppa_w64.operands_divl ~xhi ~xlo:x y,
                     Printf.sprintf "x=%Ld:%Ld y=%Ld" xhi x y )
               | _, Strategy.Constant64 _ ->
                   ( [ Hppa_w64.hi32 x; Hppa_w64.lo32 x ],
                     Printf.sprintf "x=%Ld" x )
               | _, (Strategy.Constant _ | Strategy.Variable) ->
                   (Hppa_w64.operands x y, Printf.sprintf "x=%Ld y=%Ld" x y)))

type measurement = {
  strategy : string;
  request : string;
  entry : string;
  digest : string;
  workload : string;
  samples : int;
  total_cycles : int;
  mean_cycles : float;
  min_cycles : int;
  max_cycles : int;
  used_engine : bool;
  batch_width : int;
  cert_kind : string option;
  cert_digest : string option;
}

(* ------------------------------------------------------------------ *)
(* Store                                                               *)

let schema = "hppa-bench-plans/2"

module Store = struct
  type t = (string * string, measurement) Hashtbl.t

  let create () : t = Hashtbl.create 64
  let length = Hashtbl.length
  let find t ~digest ~workload = Hashtbl.find_opt t (digest, workload)
  let add t m = Hashtbl.replace t (m.digest, m.workload) m

  let entries t =
    Hashtbl.fold (fun _ m acc -> m :: acc) t []
    |> List.sort (fun a b ->
           compare (a.digest, a.workload, a.strategy)
             (b.digest, b.workload, b.strategy))

  let find_digest t digest =
    entries t |> List.filter (fun m -> m.digest = digest)

  let entry_json m =
    let open Obs.Json in
    Obj
      ([
         ("digest", Str m.digest);
         ("workload", Str m.workload);
         ("strategy", Str m.strategy);
         ("request", Str m.request);
         ("entry", Str m.entry);
         ("samples", Int m.samples);
         ("total_cycles", Int m.total_cycles);
         ("min_cycles", Int m.min_cycles);
         ("max_cycles", Int m.max_cycles);
         ("used_engine", Bool m.used_engine);
       ]
      (* Scalar measurements stay byte-identical to older stores: the
         field only appears when batching was actually used. *)
      @ (if m.batch_width > 1 then [ ("batch_width", Int m.batch_width) ]
         else [])
      @
      match (m.cert_kind, m.cert_digest) with
      | Some k, Some d -> [ ("cert_kind", Str k); ("cert_digest", Str d) ]
      | _ -> [])

  let to_json t =
    Obs.Json.(
      to_string
        (Obj
           [
             ("schema", Str schema);
             ("entries", List (List.map entry_json (entries t)));
           ]))
    ^ "\n"

  (* The store is outside input: a missing or mistyped field is an error
     that names it, and an integer field takes only an integer lexeme in
     [int] range (1.5 and 1e30 are refused, not truncated). *)
  let measurement_of_json j =
    let ( let* ) = Result.bind in
    let field key what get =
      match Obs.Json.member key j with
      | None -> Error (Printf.sprintf "entry is missing field %S" key)
      | Some v -> (
          match get v with
          | Some x -> Ok x
          | None ->
              Error
                (Printf.sprintf "entry field %S: expected %s, got %s" key what
                   (Obs.Json.to_string v)))
    in
    let optional get key =
      match Obs.Json.member key j with
      | None -> Ok None
      | Some _ -> Result.map Option.some (get key)
    in
    let str key =
      field key "a string" (function Obs.Json.Str s -> Some s | _ -> None)
    in
    let int key =
      field key "an integer" (function Obs.Json.Int n -> Some n | _ -> None)
    in
    let* digest = str "digest" in
    let* workload = str "workload" in
    let* strategy = str "strategy" in
    let* request = str "request" in
    let* entry = str "entry" in
    let* samples = int "samples" in
    let* total_cycles = int "total_cycles" in
    let* min_cycles = int "min_cycles" in
    let* max_cycles = int "max_cycles" in
    let* used_engine =
      field "used_engine" "a boolean" (function
        | Obs.Json.Bool b -> Some b
        | _ -> None)
    in
    (* optional since the batched engine landed; absent in older stores
       = scalar measurement *)
    let* batch_width = optional int "batch_width" in
    let* cert_kind = optional str "cert_kind" in
    let* cert_digest = optional str "cert_digest" in
    if samples <= 0 then
      Error (Printf.sprintf "entry field \"samples\": %d is not positive" samples)
    else
      Ok
        {
          strategy; request; entry; digest; workload; samples; total_cycles;
          mean_cycles = float_of_int total_cycles /. float_of_int samples;
          min_cycles; max_cycles; used_engine;
          batch_width = Option.value batch_width ~default:1;
          cert_kind; cert_digest;
        }

  let of_json text =
    match Obs.Json.parse text with
    | Error e -> Error ("bad JSON: " ^ e)
    | Ok j -> (
        match (Obs.Json.member "schema" j, Obs.Json.member "entries" j) with
        | Some (Str s), Some (List items) when s = schema ->
            let t = create () in
            let rec go = function
              | [] -> Ok t
              | item :: rest -> (
                  match measurement_of_json item with
                  | Ok m -> add t m; go rest
                  | Error _ as e -> e)
            in
            go items
        | Some (Str s), _ when s = schema -> Error "missing \"entries\" array"
        | Some (Str other), _ ->
            Error (Printf.sprintf "schema %S (expected %S)" other schema)
        | _ -> Error "missing \"schema\"")

  let save t path =
    try
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
          output_string oc (to_json t));
      Ok ()
    with Sys_error e -> Error e

  let load path =
    try
      let ic = open_in_bin path in
      let text =
        Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
            really_input_string ic (in_channel_length ic))
      in
      of_json text
    with Sys_error e -> Error e
end

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)

let counter obs ?labels name =
  Option.map (fun reg -> Obs.Registry.counter reg ?labels name) obs

let bump obs ?labels name = Option.iter Obs.Counter.incr (counter obs ?labels name)

let bump_by obs ?labels name v =
  Option.iter (fun c -> Obs.Counter.add c v) (counter obs ?labels name)

let set_entries_gauge obs store =
  match (obs, store) with
  | Some reg, Some st ->
      Obs.Gauge.set
        (Obs.Registry.gauge reg "hppa_plan_store_entries")
        (float_of_int (Store.length st))
  | _ -> ()

let aggregate ?cert ?(batch_width = 1) ~strategy ~request ~entry ~digest
    ~workload cycles ~used_engine =
  let samples = List.length cycles in
  let total = List.fold_left ( + ) 0 cycles in
  {
    strategy;
    request;
    entry;
    digest;
    workload;
    samples;
    total_cycles = total;
    mean_cycles = float_of_int total /. float_of_int samples;
    min_cycles = List.fold_left min max_int cycles;
    max_cycles = List.fold_left max 0 cycles;
    used_engine;
    batch_width;
    cert_kind =
      Option.map
        (fun (c : Hppa_verify.Certificate.t) ->
          Hppa_verify.Certificate.kind_label c.Hppa_verify.Certificate.kind)
        cert;
    cert_digest =
      Option.map
        (fun (c : Hppa_verify.Certificate.t) -> c.Hppa_verify.Certificate.digest)
        cert;
  }

let record obs store m =
  let labels = [ ("strategy", m.strategy) ] in
  bump obs ~labels "hppa_plan_measured_total";
  bump_by obs ~labels "hppa_plan_measured_cycles_total" m.total_cycles;
  Option.iter (fun st -> Store.add st m) store;
  set_entries_gauge obs store;
  m

let measure ?store ?obs ?(fuel = 2_000_000) ?(batch_width = 256) workload
    (req : Strategy.request) (s : Strategy.t) =
  let tag = workload_tag workload in
  let request = Strategy.request_id req in
  match s.Strategy.kind with
  | Strategy.Modelled ->
      if req.Strategy.width = Strategy.W64 then
        Error (s.Strategy.name ^ ": modelled strategies cover 32-bit requests only")
      else if is_w64_workload workload then
        Error "64-bit workload requires a w64 request"
      else
        let pairs = operands workload req in
        if pairs = [] then Error "empty workload"
        else (
          match s.Strategy.model with
          | None -> Error (s.Strategy.name ^ ": modelled strategy has no model")
          | Some model ->
              let rec go acc = function
                | [] -> Ok (List.rev acc)
                | (x, y) :: rest -> (
                    match model req x y with
                    | Some c -> go (c :: acc) rest
                    | None ->
                        Error
                          (Printf.sprintf "%s: model undefined for x=%ld y=%ld"
                             s.Strategy.name x y))
              in
              Result.map
                (fun cycles ->
                  record obs store
                    (aggregate ~strategy:s.Strategy.name ~request ~entry:""
                       ~digest:("model:" ^ s.Strategy.name) ~workload:tag cycles
                       ~used_engine:false))
                (go [] pairs))
  | Strategy.Emits -> (
      match operand_lists workload req with
      | Error e -> Error e
      | Ok [] -> Error "empty workload"
      | Ok calls -> (
          match s.Strategy.emit req with
          | Error e -> Error e
          | Ok em -> (
              match Strategy.digest em with
              | Error e -> Error e
              | Ok digest -> (
                  match
                    Option.bind store (fun st ->
                        Store.find st ~digest ~workload:tag)
                  with
                  | Some m ->
                      bump obs "hppa_plan_store_hits_total";
                      Ok m
                  | None -> (
                      bump obs "hppa_plan_store_misses_total";
                      match Strategy.link em with
                      | Error e -> Error e
                      | Ok prog ->
                          (* attach the proof when a certifier covers the
                             shape; measurements of uncertifiable emissions
                             simply carry no certificate *)
                          let cert = Result.to_option (Strategy.certify req em) in
                          let entry = em.Strategy.entry in
                          let bw = max 1 (min batch_width (List.length calls)) in
                          let run_scalar () =
                            let config =
                              { Machine.Config.default with engine = true; fuel }
                            in
                            let mach = Machine.create ~config prog in
                            let rec go acc = function
                              | [] -> Ok (List.rev acc, Machine.used_engine mach)
                              | (args, label) :: rest -> (
                                  match
                                    Machine.call_cycles mach entry ~args
                                  with
                                  | Machine.Halted, cycles ->
                                      go (cycles :: acc) rest
                                  | Machine.Trapped t, _ ->
                                      Error
                                        (Printf.sprintf "%s: trap %s on %s"
                                           entry (Trap.name t) label)
                                  | Machine.Fuel_exhausted, _ ->
                                      Error
                                        (Printf.sprintf
                                           "%s: fuel exhausted on %s" entry
                                           label))
                            in
                            go [] calls
                          in
                          (* Per-lane cycle counts from the batched engine
                             equal the scalar engine's call_cycles deltas
                             (pinned by the differential suite), so the
                             measurement is identical — only faster. *)
                          let run_batched () =
                            let b = Machine.Batch.create ~lanes:bw prog in
                            let take n xs =
                              let rec go n acc = function
                                | x :: tl when n > 0 ->
                                    go (n - 1) (x :: acc) tl
                                | tl -> (List.rev acc, tl)
                              in
                              go n [] xs
                            in
                            let rec go acc = function
                              | [] -> Ok (List.rev acc, true)
                              | rest -> (
                                  let chunk, rest = take bw rest in
                                  let lane_args =
                                    Array.of_list (List.map fst chunk)
                                  in
                                  Machine.Batch.call ~fuel b entry
                                    ~args:lane_args;
                                  let rec lanes l acc = function
                                    | [] -> Ok acc
                                    | (_, label) :: tl -> (
                                        match
                                          Machine.Batch.outcome b ~lane:l
                                        with
                                        | Machine.Halted ->
                                            lanes (l + 1)
                                              (Machine.Batch.cycles b ~lane:l
                                              :: acc)
                                              tl
                                        | Machine.Trapped t ->
                                            Error
                                              (Printf.sprintf
                                                 "%s: trap %s on %s" entry
                                                 (Trap.name t) label)
                                        | Machine.Fuel_exhausted ->
                                            Error
                                              (Printf.sprintf
                                                 "%s: fuel exhausted on %s"
                                                 entry label))
                                  in
                                  match lanes 0 acc chunk with
                                  | Ok acc -> go acc rest
                                  | Error _ as e -> e)
                            in
                            go [] calls
                          in
                          Result.map
                            (fun (cycles, used_engine) ->
                              record obs store
                                (aggregate ?cert ~batch_width:bw
                                   ~strategy:s.Strategy.name ~request ~entry
                                   ~digest ~workload:tag cycles ~used_engine))
                            (if bw > 1 then run_batched () else run_scalar ()))))))

(* ------------------------------------------------------------------ *)
(* Tuning                                                              *)

type report = {
  choice : Selector.choice;
  measurements : (string * (measurement, string) result) list;
  chosen : measurement;
  best : string;
  fallback : measurement option;
  gate_ok : bool;
}

let fallback_name (req : Strategy.request) =
  match (req.width, req.op) with
  | _, Strategy.Divl -> "w64_divl_millicode"
  | Strategy.W64, Strategy.Mul -> "w64_mul_millicode"
  | Strategy.W64, (Strategy.Div | Strategy.Rem) -> "w64_div_millicode"
  | Strategy.W32, Strategy.Mul -> "mul_millicode"
  | Strategy.W32, (Strategy.Div | Strategy.Rem) -> "div_millicode"

let tune ?ctx ?store ?obs ?fuel ?require_certified workload req =
  match Selector.choose ?ctx ?obs ?require_certified req with
  | Error e -> Error e
  | Ok choice -> (
      let measurements =
        List.map
          (fun (c : Selector.candidate) ->
            ( c.strategy.Strategy.name,
              measure ?store ?obs ?fuel workload req c.strategy ))
          choice.Selector.candidates
      in
      match List.assoc_opt choice.Selector.chosen.Strategy.name measurements with
      | None | Some (Error _) ->
          let detail =
            match
              List.assoc_opt choice.Selector.chosen.Strategy.name measurements
            with
            | Some (Error e) -> e
            | _ -> "not measured"
          in
          Error
            (Printf.sprintf "chosen strategy %s failed to measure: %s"
               choice.Selector.chosen.Strategy.name detail)
      | Some (Ok chosen) ->
          let ok_measurements =
            List.filter_map
              (fun (name, r) ->
                match r with Ok m -> Some (name, m) | Error _ -> None)
              measurements
          in
          let best =
            List.fold_left
              (fun acc (name, m) ->
                match acc with
                | None -> Some (name, m)
                | Some (_, b) when m.mean_cycles < b.mean_cycles -> Some (name, m)
                | some -> some)
              None ok_measurements
            |> Option.map fst
            |> Option.value ~default:chosen.strategy
          in
          bump obs ~labels:[ ("strategy", best) ] "hppa_plan_wins_total";
          let fallback =
            List.assoc_opt (fallback_name req) ok_measurements
          in
          let gate_ok =
            match fallback with
            | None -> true
            | Some f ->
                (* Same workload on both sides: compare exact totals. *)
                chosen.total_cycles <= f.total_cycles
          in
          Ok { choice; measurements; chosen; best; fallback; gate_ok })

let pp_report ppf r =
  let open Format in
  fprintf ppf "@[<v>%a@," Selector.pp_choice r.choice;
  fprintf ppf "measured (workload %s):" r.chosen.workload;
  List.iter
    (fun (name, m) ->
      match m with
      | Ok m ->
          fprintf ppf "@,  %-24s mean %8.2f  min %4d  max %4d  (%d samples%s)"
            name m.mean_cycles m.min_cycles m.max_cycles m.samples
            (if m.used_engine then ", engine" else "")
      | Error e -> fprintf ppf "@,  %-24s unmeasured: %s" name e)
    r.measurements;
  fprintf ppf "@,best measured: %s" r.best;
  (match r.fallback with
  | Some f ->
      fprintf ppf "@,gate: chosen %.2f <= fallback %.2f cycles: %s"
        r.chosen.mean_cycles f.mean_cycles
        (if r.gate_ok then "ok" else "VIOLATED")
  | None -> fprintf ppf "@,gate: no millicode fallback measured");
  fprintf ppf "@]"
