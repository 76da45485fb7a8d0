type item = Label of string | Insn of string Insn.t
type source = item list

type resolved = {
  code : int Insn.t array;
  symbols : (string, int) Hashtbl.t;
  names : (int, string) Hashtbl.t;
}

type library = {
  image : resolved;
  labels : string list; (* in source order *)
  rank : (string, int) Hashtbl.t; (* position in [labels] *)
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
    Ok { code; symbols; names }
  with Bad msg -> Error msg

let resolve src = assemble src []

let library src =
  Result.map
    (fun image ->
      let labels =
        List.filter_map (function Label l -> Some l | Insn _ -> None) src
      in
      let rank = Hashtbl.create 64 in
      List.iteri (fun i l -> Hashtbl.replace rank l i) labels;
      { image; labels; rank })
    (resolve src)

let library_image lib = lib.image
let resolve_before src libs = Result.map (fun p -> p.code) (assemble src libs)

let resolve_exn src =
  match resolve src with
  | Ok p -> p
  | Error msg -> invalid_arg ("Program.resolve_exn: " ^ msg)

let symbol p l = Hashtbl.find_opt p.symbols l

let symbol_exn p l =
  match symbol p l with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Program.symbol_exn: no label %S" l)

let length p = Array.length p.code
let concat = List.concat

let pp_item ppf = function
  | Label l -> Format.fprintf ppf "%s:" l
  | Insn i -> Format.fprintf ppf "        %a" (Insn.pp Format.pp_print_string) i

let pp_source ppf src =
  Format.pp_print_list ~pp_sep:Format.pp_print_newline pp_item ppf src

let pp_resolved ppf p =
  Array.iteri
    (fun addr i ->
      (match Hashtbl.find_opt p.names addr with
      | Some l -> Format.fprintf ppf "%s:@." l
      | None -> ());
      Format.fprintf ppf "  %4d:  %a@." addr (Insn.pp Format.pp_print_int) i)
    p.code
