type item = Label of string | Insn of string Insn.t
type source = item list

(* An image is a head, resolved by its own pass, and optionally a
   recorded library placed right after it, at the head's length. The
   library is shared, not copied: its instructions with a target are
   moved up by the head's length when they are read. Nothing here is
   written after [assemble] returns. *)
type resolved = {
  code : int Insn.t array; (* the head's instructions *)
  symbols : (string, int) Hashtbl.t; (* the head's labels *)
  names : (int, string) Hashtbl.t; (* first head label at each address *)
  tail : library option;
}

and library = {
  image : resolved; (* resolved by one pass over its source: no tail *)
  labels : string list; (* in source order *)
  rank : (string, int) Hashtbl.t; (* position in [labels] *)
  targeted : int array; (* addresses of the instructions with a target *)
  words : (string, string) result option Atomic.t; (* see [once] *)
  marks : Bytes.t option Atomic.t; (* see [once]; never written after *)
}

(* Resolve [src] as the first unit of an image whose later units are
   [libs], each already resolved on its own: [src]'s code, symbols and
   names, with references into [libs] resolved to the addresses they
   take in that image. *)
let assemble (src : source) libs =
  let exception Bad of string in
  try
    let symbols = Hashtbl.create 64 in
    let names = Hashtbl.create 64 in
    let count =
      List.fold_left
        (fun addr item ->
          match item with
          | Label l ->
              if Hashtbl.mem symbols l then
                raise (Bad (Printf.sprintf "duplicate label %S" l));
              Hashtbl.add symbols l addr;
              if not (Hashtbl.mem names addr) then Hashtbl.add names addr l;
              addr
          | Insn _ -> addr + 1)
        0 src
    in
    (* A library label defined by an earlier unit is the clash a single
       pass over the whole image would meet first: the earliest, in the
       library's own order, of those labels. *)
    if libs <> [] then
      ignore
        (List.fold_left
           (fun earlier lib ->
             let clash =
               List.fold_left
                 (List.fold_left (fun first l ->
                      match (Hashtbl.find_opt lib.rank l, first) with
                      | Some r, Some (r', _) when r >= r' -> first
                      | Some r, _ -> Some (r, l)
                      | None, _ -> first))
                 None earlier
             in
             Option.iter
               (fun (_, l) ->
                 raise (Bad (Printf.sprintf "duplicate label %S" l)))
               clash;
             lib.labels :: earlier)
           [ Hashtbl.fold (fun l _ ls -> l :: ls) symbols [] ]
           libs);
    let lookup l =
      match Hashtbl.find_opt symbols l with
      | Some a -> a
      | None ->
          let rec in_libs base = function
            | [] -> raise (Bad (Printf.sprintf "undefined label %S" l))
            | lib :: rest -> (
                match Hashtbl.find_opt lib.image.symbols l with
                | Some a -> base + a
                | None -> in_libs (base + Array.length lib.image.code) rest)
          in
          in_libs count libs
    in
    let code = Array.make count Insn.Nop in
    let addr = ref 0 in
    List.iter
      (fun item ->
        match item with
        | Label _ -> ()
        | Insn i ->
            (match Insn.validate i with
            | Ok () -> ()
            | Error msg ->
                raise
                  (Bad (Printf.sprintf "instruction %d: %s" !addr msg)));
            code.(!addr) <- Insn.map_target lookup i;
            incr addr)
      src;
    Ok { code; symbols; names; tail = None }
  with Bad msg -> Error msg

(* The libraries resolved so far, most recent first, keyed by their
   source by identity; at most [library_cap] are kept. Readers take the
   list as it stands; [library] adds to it under [library_lock], so each
   library is resolved once however many domains ask for it. *)
let library_cap = 8
let libraries : (source * library) list Atomic.t = Atomic.make []
let library_lock = Mutex.create ()

(* The longest suffix of [src] that is a recorded library, with the
   number of items before it. *)
let recorded_tail src =
  let libs = Atomic.get libraries in
  let rec walk before = function
    | [] -> None
    | _ :: rest as tail -> (
        match List.assq_opt tail libs with
        | Some lib -> Some (before, lib)
        | None -> walk (before + 1) rest)
  in
  match libs with [] -> None | _ :: _ -> walk 0 src

(* [head] resolved as the first unit of an image whose second and last
   unit is [lib]: [assemble] gives [head]'s part and its errors, and
   [lib] follows it by reference. An empty head is [lib]'s own image. *)
let splice head lib =
  match head with
  | [] -> Ok lib.image
  | _ :: _ -> Result.map (fun h -> { h with tail = Some lib }) (assemble head [ lib ])

let resolve src =
  match recorded_tail src with
  | None -> assemble src []
  | Some (before, lib) ->
      let rec head k = function
        | item :: rest when k > 0 -> item :: head (k - 1) rest
        | _ -> []
      in
      splice (head before src) lib

let library_suffix src = Option.map fst (recorded_tail src)

let build src =
  Result.map
    (fun image ->
      let labels =
        List.filter_map (function Label l -> Some l | Insn _ -> None) src
      in
      let rank = Hashtbl.create 64 in
      List.iteri (fun i l -> Hashtbl.replace rank l i) labels;
      let targeted = ref [] in
      Array.iteri
        (fun a i -> if Insn.target i <> None then targeted := a :: !targeted)
        image.code;
      { image; labels; rank; targeted = Array.of_list (List.rev !targeted);
        words = Atomic.make None; marks = Atomic.make None })
    (assemble src [])

let library src =
  let find () = List.assq_opt src (Atomic.get libraries) in
  match find () with
  | Some lib -> Ok lib
  | None ->
      Mutex.protect library_lock (fun () ->
          match find () with
          | Some lib -> Ok lib
          | None ->
              let lib = build src in
              (match (lib, src) with
              | Ok lib, _ :: _ ->
                  Atomic.set libraries
                    ((src, lib)
                    :: List.filteri
                         (fun i _ -> i < library_cap - 1)
                         (Atomic.get libraries))
              | Ok _, [] | Error _, _ -> ());
              lib)

let library_image lib = lib.image
let resolve_before src libs = Result.map (fun p -> p.code) (assemble src libs)

let resolve_exn src =
  match resolve src with
  | Ok p -> p
  | Error msg -> invalid_arg ("Program.resolve_exn: " ^ msg)

let length p =
  Array.length p.code
  + match p.tail with Some lib -> Array.length lib.image.code | None -> 0

let insn p a =
  let n = Array.length p.code in
  if a >= 0 && a < n then p.code.(a)
  else
    match p.tail with
    | Some lib when a >= n && a - n < Array.length lib.image.code ->
        Insn.map_target (fun t -> t + n) lib.image.code.(a - n)
    | _ -> invalid_arg (Printf.sprintf "Program.insn: no address %d" a)

let symbol p l =
  match Hashtbl.find_opt p.symbols l with
  | Some _ as a -> a
  | None -> (
      match p.tail with
      | Some lib ->
          Option.map
            (fun a -> a + Array.length p.code)
            (Hashtbl.find_opt lib.image.symbols l)
      | None -> None)

let symbol_exn p l =
  match symbol p l with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Program.symbol_exn: no label %S" l)

let name_at p a =
  match Hashtbl.find_opt p.names a with
  | Some _ as l -> l
  | None -> (
      match p.tail with
      | Some lib -> Hashtbl.find_opt lib.image.names (a - Array.length p.code)
      | None -> None)

let iter_symbols f p =
  Hashtbl.iter f p.symbols;
  Option.iter
    (fun lib ->
      let n = Array.length p.code in
      Hashtbl.iter (fun l a -> f l (a + n)) lib.image.symbols)
    p.tail

let code p =
  match p.tail with
  | None -> Array.copy p.code
  | Some lib ->
      let n = Array.length p.code in
      let code = Array.append p.code lib.image.code in
      Array.iter
        (fun a -> code.(n + a) <- Insn.map_target (fun t -> t + n) code.(n + a))
        lib.targeted;
      code

(* [cell]'s value, computed by [f] on first use under [library_lock],
   so once per library however many domains ask, and read without the
   lock after. [f] must not call [library]: the lock is not reentrant. *)
let once cell f =
  match Atomic.get cell with
  | Some v -> v
  | None ->
      Mutex.protect library_lock (fun () ->
          match Atomic.get cell with
          | Some v -> v
          | None ->
              let v = f () in
              Atomic.set cell (Some v);
              v)

(* Every branch and address encoding is PC-relative, so a library's
   words are the same wherever it sits in a linked image. *)
let library_words lib =
  once lib.words (fun () ->
      let code = lib.image.code in
      Result.map Encode.le_bytes
        (Encode.round_trip (Array.length code) (Array.get code)))

let table_bound img addr x =
  if addr <= 0 || addr > length img then None
  else
    match insn img (addr - 1) with
    | Insn.Extr { signed = false; r = _; pos = _; len; t; cond = Cond.Never }
      when Reg.equal t x && len >= 1 && len <= 8 ->
        Some (1 lsl len)
    | _ -> None

(* Everything control can reach other than by falling through: labels,
   branch targets, call-return points, vectored-table slots (the whole
   image tail for a table [table_bound] cannot bound) and nullifier
   skips, mirroring the marking in [Hppa_verify.Cfg.make]. *)
let marks img =
  let n = length img in
  let marks = Bytes.make n '\000' in
  let mark a = if a >= 0 && a < n then Bytes.set marks a '\001' in
  iter_symbols (fun _ a -> mark a) img;
  for addr = 0 to n - 1 do
    let i = insn img addr in
    (match Insn.target i with Some a -> mark a | None -> ());
    (match (i : int Insn.t) with
    | Insn.Blr { x; _ } ->
        let slots =
          match table_bound img addr x with
          | Some k -> k
          | None -> ((n - addr) / 2) + 1
        in
        for k = 0 to slots - 1 do
          mark (addr + 1 + (2 * k))
        done
    | Insn.Bl _ -> mark (addr + 1)
    | _ -> ());
    if Insn.is_nullifier i then mark (addr + 2)
  done;
  marks

let fall_through_only lib a =
  let marks = once lib.marks (fun () -> marks lib.image) in
  a >= 0 && a < Bytes.length marks && Bytes.get marks a = '\000'

(* The last unit's cells are kept, so a program concatenated with a
   library ends in the library's own source. *)
let rec concat = function
  | [] -> []
  | [ last ] -> last
  | unit_ :: rest -> unit_ @ concat rest

let pp_item ppf = function
  | Label l -> Format.fprintf ppf "%s:" l
  | Insn i -> Format.fprintf ppf "        %a" (Insn.pp Format.pp_print_string) i

let pp_source ppf src =
  Format.pp_print_list ~pp_sep:Format.pp_print_newline pp_item ppf src

let pp_resolved ppf p =
  for addr = 0 to length p - 1 do
    (match name_at p addr with
    | Some l -> Format.fprintf ppf "%s:@." l
    | None -> ());
    Format.fprintf ppf "  %4d:  %a@." addr (Insn.pp Format.pp_print_int) (insn p addr)
  done
