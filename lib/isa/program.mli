(** Assembly programs: labelled instruction sequences and their resolution
    to executable images.

    A {!source} program carries symbolic labels; {!resolve} performs the
    second assembler pass, producing an array of instructions whose branch
    targets are absolute instruction indices, plus a symbol table used to
    call entry points and to form vectored-branch table addresses. *)

type item = Label of string | Insn of string Insn.t
type source = item list

type resolved = private {
  code : int Insn.t array;
  symbols : (string, int) Hashtbl.t;
  names : (int, string) Hashtbl.t; (* first label at each address *)
}

val resolve : source -> (resolved, string) result
(** Fails on duplicate labels, undefined targets, or instructions rejected by
    {!Insn.validate}. *)

val resolve_exn : source -> resolved

type library
(** A compilation unit resolved on its own, kept to be linked after
    other code without resolving it again. *)

val library : source -> (library, string) result
(** {!resolve} the unit alone. *)

val library_image : library -> resolved

val resolve_before : source -> library list -> (int Insn.t array, string) result
(** [resolve_before src libs] is the code that
    [resolve (concat (src :: sources of libs))] gives at addresses
    [0 .. n-1], for [n] the instructions of [src], or the error it
    gives: [src]'s own instructions, with references into [libs]
    resolved to the libraries' addresses in that image. The work is
    [src]'s, not the libraries': their code is not visited. *)

val symbol : resolved -> string -> int option
val symbol_exn : resolved -> string -> int
val length : resolved -> int

val concat : source list -> source
(** Concatenate compilation units (e.g. a program and the millicode library);
    label clashes surface at {!resolve} time. *)

val pp_source : Format.formatter -> source -> unit
val pp_resolved : Format.formatter -> resolved -> unit
(** Disassembly listing with addresses and label comments. *)
