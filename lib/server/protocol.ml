(* Wire protocol: total parsing of one request line. Random bytes, huge
   numbers, wrong arities — everything maps to Error, never an
   exception (the fuzz suite pins this).

   Every plan-producing verb — scalar or batch, 32- or 64-bit — is one
   [kernel]: MUL and DIV here, and one [Krun] per row of
   [Hppa_w64.kernels], the table of served run-time-operand kernels.
   Parsing, verb naming, printing, cache keys, batch caps and
   batch-header recognition all read that row, so a new W64 verb is one
   row in Hppa_w64 and no code here. *)

module Word = Hppa_word.Word

(* The lane type is indexed by the kernel, so a lane of the wrong shape
   cannot be built: MUL/DIV lanes are int32 constants, a run kernel's
   lanes the operand dwords of its row. *)
type _ kernel =
  | Kmul : int32 kernel
  | Kdiv : int32 kernel
  | Krun : { run : Hppa_w64.kernel; signed : bool } -> int64 list kernel

type request =
  | Op : { kernel : 'lane kernel; batch : bool; lanes : 'lane list } -> request
  | Eval of string * Word.t list
  | Stats
  | Metrics
  | Ping
  | Quit

(* Convenience constructors for the scalar forms. *)
let mul n = Op { kernel = Kmul; batch = false; lanes = [ n ] }
let div d = Op { kernel = Kdiv; batch = false; lanes = [ d ] }

let run k ~signed dwords =
  Op
    {
      kernel = Krun { run = k; signed = signed && k.Hppa_w64.tagged };
      batch = false;
      lanes = [ dwords ];
    }

let max_line_bytes = 1024

(* 64 operands of up to 11 characters plus separators and the verb fit
   comfortably inside [max_line_bytes]. *)
let max_batch_operands = 64

let kernel_verb : type lane. lane kernel -> string = function
  | Kmul -> "MUL"
  | Kdiv -> "DIV"
  | Krun { run; _ } -> run.Hppa_w64.verb

let verb = function
  | Op { kernel; batch; _ } ->
      if batch then kernel_verb kernel ^ "B" else kernel_verb kernel
  | Eval _ -> "EVAL"
  | Stats -> "STATS"
  | Metrics -> "METRICS"
  | Ping -> "PING"
  | Quit -> "QUIT"

let one_line s = String.map (function '\n' | '\r' -> ' ' | c -> c) s
let ok payload = "OK " ^ one_line payload
let err detail = "ERR " ^ one_line detail
let is_ok s = String.length s >= 3 && String.sub s 0 3 = "OK "
let is_err s = String.length s >= 4 && String.sub s 0 4 = "ERR "

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Printable excerpt of hostile input for error messages. *)
let excerpt s =
  let n = min (String.length s) 32 in
  let b = Buffer.create n in
  for i = 0 to n - 1 do
    let c = s.[i] in
    if c >= ' ' && c <= '~' && c <> '"' then Buffer.add_char b c
    else Buffer.add_char b '?'
  done;
  if String.length s > n then Buffer.add_string b "...";
  Buffer.contents b

let int32_of_token tok =
  match Int64.of_string_opt tok with
  | None -> Error (Printf.sprintf "parse bad integer \"%s\"" (excerpt tok))
  | Some v ->
      if v < -0x8000_0000L || v > 0xFFFF_FFFFL then
        Error (Printf.sprintf "range %s does not fit in 32 bits" (excerpt tok))
      else Ok (Int64.to_int32 v)

(* 64-bit operands are full int64 values; decimal literals must fit
   int64 (hex literals wrap like OCaml's [Int64.of_string]). *)
let int64_of_token tok =
  match Int64.of_string_opt tok with
  | None -> Error (Printf.sprintf "parse bad integer \"%s\"" (excerpt tok))
  | Some v -> Ok v

let signedness_of_token = function
  | "u" | "U" -> Ok false
  | "s" | "S" -> Ok true
  | tok ->
      Error
        (Printf.sprintf "parse bad signedness \"%s\" (expected u or s)"
           (excerpt tok))

let tokens line =
  String.split_on_char ' ' line |> List.filter (fun t -> t <> "")

let label_ok s =
  s <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_')
       s

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      Result.bind (f x) (fun y ->
          Result.map (fun ys -> y :: ys) (map_result f rest))

(* Split tokens into lanes of [n] (the count is a multiple of [n]). *)
let rec chunks n toks =
  let rec take i acc = function
    | t :: rest when i > 0 -> take (i - 1) (t :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  match take n [] toks with
  | [], _ -> []
  | lane, rest -> lane :: chunks n rest

(* One parser per kernel, for its scalar and batch forms; the error
   strings are generated from the verb and, for a run kernel, from its
   row, so every verb reports uniformly. A batch with one bad operand is
   rejected whole: a partial batch would desynchronize the lane-indexed
   reply. *)
let fail name fmt = Printf.ksprintf (fun m -> Error ("parse " ^ name ^ m)) fmt

let parse_consts kernel name ~batch args =
  let lanes =
    if not batch then
      if List.length args = 1 then map_result int32_of_token args
      else fail name " takes exactly one integer"
    else if args = [] then fail name " needs at least one integer"
    else if List.length args > max_batch_operands then
      fail name " takes at most %d integers" max_batch_operands
    else map_result int32_of_token args
  in
  Result.map (fun lanes -> Op { kernel; batch; lanes }) lanes

let parse_run (k : Hppa_w64.kernel) name ~batch args =
  let n = List.length k.args in
  let group, stray =
    match n with
    | 2 -> ("pair", "odd operand count")
    | 3 -> ("triple", "operand count not a multiple of three")
    | n ->
        ( Printf.sprintf "%d-tuple" n,
          Printf.sprintf "operand count not a multiple of %d" n )
  in
  let op signed toks =
    Result.map
      (fun lanes -> Op { kernel = Krun { run = k; signed }; batch; lanes })
      (map_result (map_result int64_of_token) (chunks n toks))
  in
  let with_sign toks f =
    match toks with
    | sign :: rest when k.tagged ->
        Result.bind (signedness_of_token sign) (fun signed -> f signed rest)
    | _ -> f false toks
  in
  if not batch then
    if List.length args <> n + Bool.to_int k.tagged then
      fail name " takes %s" k.takes
    else with_sign args op
  else if args = [] && k.tagged then
    fail name " needs a signedness and operand %ss" group
  else
    with_sign args (fun signed toks ->
        let count = List.length toks in
        if count = 0 then fail name " needs at least one operand %s" group
        else if count mod n <> 0 then
          fail name " takes %s operand %ss (%s)" (String.concat " " k.args)
            group stray
        else if count / n > k.batch_cap then
          fail name " takes at most %d operand %ss" k.batch_cap group
        else op signed toks)

(* The verb table: MUL, DIV and one row per served run kernel. *)
let parsers =
  (kernel_verb Kmul, parse_consts Kmul)
  :: (kernel_verb Kdiv, parse_consts Kdiv)
  :: List.map (fun k -> (k.Hppa_w64.verb, parse_run k)) Hppa_w64.kernels

(* Batch replies open "OK <VERB>B k=<K>" — derived from the same table,
   so a new kernel's batch form frames correctly with no extra code. *)
let is_batch_reply s =
  List.exists (fun (name, _) -> starts_with ("OK " ^ name ^ "B k=") s) parsers

(* "<VERB>" is the scalar form, "<VERB>B" the batch form of one row. *)
let parse_op cmd args =
  match List.assoc_opt cmd parsers with
  | Some parse -> Some (parse cmd ~batch:false args)
  | None ->
      let n = String.length cmd in
      if n > 1 && cmd.[n - 1] = 'B' then
        Option.map
          (fun parse -> parse cmd ~batch:true args)
          (List.assoc_opt (String.sub cmd 0 (n - 1)) parsers)
      else None

let parse line =
  let line =
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
  in
  if String.length line > max_line_bytes then
    Error (Printf.sprintf "oversized request exceeds %d bytes" max_line_bytes)
  else
    match tokens line with
    | [] -> Error "parse empty request"
    | cmd :: rest -> (
        let cmd = String.uppercase_ascii cmd in
        match parse_op cmd rest with
        | Some parsed -> parsed
        | None -> (
            match (cmd, rest) with
            | "EVAL", entry :: args ->
                if not (label_ok entry) then
                  Error
                    (Printf.sprintf "parse bad entry label \"%s\""
                       (excerpt entry))
                else if List.length args > 4 then
                  Error "parse EVAL takes at most four arguments"
                else
                  map_result int32_of_token args
                  |> Result.map (fun args -> Eval (entry, args))
            | "EVAL", [] -> Error "parse EVAL needs an entry label"
            | "STATS", [] -> Ok Stats
            | "STATS", _ -> Error "parse STATS takes no arguments"
            | "METRICS", [] -> Ok Metrics
            | "METRICS", _ -> Error "parse METRICS takes no arguments"
            | "PING", [] -> Ok Ping
            | "PING", _ -> Error "parse PING takes no arguments"
            | "QUIT", [] -> Ok Quit
            | "QUIT", _ -> Error "parse QUIT takes no arguments"
            | _ ->
                Error
                  (Printf.sprintf "parse unknown command \"%s\"" (excerpt cmd))
            ))

(* Canonical rendering. Scalar requests print exactly as their
   normalized wire form — that string is the shard-cache key, so "MUL 7"
   and " mul  7 " share one entry. Batch lanes print space-separated in
   lane order, after the kernel's signedness tag when its wire carries
   one. *)
let pp_op : type lane.
    Format.formatter -> lane kernel -> bool -> lane list -> unit =
 fun ppf kernel batch lanes ->
  Format.fprintf ppf "%s%s" (kernel_verb kernel) (if batch then "B" else "");
  match kernel with
  | Kmul -> List.iter (Format.fprintf ppf " %ld") lanes
  | Kdiv -> List.iter (Format.fprintf ppf " %ld") lanes
  | Krun { run; signed } ->
      if run.Hppa_w64.tagged then
        Format.fprintf ppf " %s" (if signed then "s" else "u");
      List.iter (List.iter (Format.fprintf ppf " %Ld")) lanes

let pp_request ppf = function
  | Op { kernel; batch; lanes } -> pp_op ppf kernel batch lanes
  | Eval (e, args) ->
      Format.fprintf ppf "EVAL %s" e;
      List.iter (fun w -> Format.fprintf ppf " %ld" w) args
  | Stats -> Format.pp_print_string ppf "STATS"
  | Metrics -> Format.pp_print_string ppf "METRICS"
  | Ping -> Format.pp_print_string ppf "PING"
  | Quit -> Format.pp_print_string ppf "QUIT"

(* The normalized scalar form of one lane — the cache key shared by the
   scalar verb and every batch lane carrying the same operand. *)
let lane_key kernel lane =
  Format.asprintf "%a" (fun ppf () -> pp_op ppf kernel false [ lane ]) ()
