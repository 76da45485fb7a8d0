(** Assembly programs: labelled instruction sequences and their resolution
    to executable images.

    A {!source} program carries symbolic labels; {!resolve} performs the
    second assembler pass, producing an image: instructions whose branch
    targets are absolute instruction indices, plus a symbol table used to
    call entry points and to form vectored-branch table addresses. *)

type item = Label of string | Insn of string Insn.t
type source = item list

type resolved
(** An executable image: immutable, read through the accessors below. *)

val resolve : source -> (resolved, string) result
(** Fails on duplicate labels, undefined targets, or instructions rejected by
    {!Insn.validate}.

    Cost: one pass over [src], unless [src] ends in the source of a
    recorded {!library} — physically, the very list given to {!library},
    as {!concat} keeps it. Then only the items before it are resolved
    (against the library, with the same errors as a whole pass), and the
    image refers to the library's after them instead of copying it: a
    link's work and allocation are the head's, whatever the library's
    size. The longest recorded suffix is the one spliced; when nothing
    comes before it, the image is the library's own. Every accessor
    reads the image as a whole pass would have made it. *)

val resolve_exn : source -> resolved

type library
(** A compilation unit resolved on its own, kept to be linked after
    other code without resolving it again, with the facts about it that
    other layers derive: its encoded words ({!library_words}) and the
    addresses control reaches only by falling through
    ({!fall_through_only}). *)

val library : source -> (library, string) result
(** {!resolve} the unit alone, and record it, keyed by [src] by identity,
    in a table of at most 8 libraries (the oldest goes first) shared by
    every domain: the only per-library table in the program. A recorded
    [src] is not resolved again: the call returns the recorded library.
    Each [src] is resolved once even when domains ask for it at the same
    time. An empty [src] and a unit that fails to resolve are not
    recorded.

    Cost: the resolution only. Each derived fact is computed on its
    first use, once per library even when domains ask at the same time;
    later reads take no lock and return the same value. *)

val library_image : library -> resolved
(** The library's own image, shared by every caller and by every later
    {!resolve} that splices it. *)

val library_words : library -> (string, string) result
(** The image's {!Encode.round_trip} words, or its error, as
    {!Encode.le_bytes}: the library's words wherever a link places it,
    since every branch and address encoding is PC-relative. *)

val table_bound : resolved -> int -> Reg.t -> int option
(** [Some 2^len] when the instruction before address [addr] is a plain
    unconditional unsigned extract of [len] bits (1 to 8) into [x]: the
    bound on the index of a [BLR] through [x] at [addr], if the extract
    dominates it. *)

val fall_through_only : library -> int -> bool
(** [fall_through_only lib a]: control reaches address [a] of the
    library's image only by falling through, not as a label, a branch
    target, a call-return point, a nullifier's skip or a [BLR] table
    slot ({!table_bound} slots, or the whole image tail for a table it
    cannot bound). [false] outside the image. *)

val library_suffix : source -> int option
(** [Some k] when [src], from its item [k] on, is the source of a
    recorded {!library} (the longest such suffix): {!resolve} then
    resolves only the first [k] items. [None] when {!resolve} makes one
    pass over the whole of [src]. *)

val resolve_before : source -> library list -> (int Insn.t array, string) result
(** [resolve_before src libs] is the code that
    [resolve (concat (src :: sources of libs))] gives at addresses
    [0 .. n-1], for [n] the instructions of [src], or the error it
    gives: [src]'s own instructions, with references into [libs]
    resolved to the libraries' addresses in that image. The work is
    [src]'s, not the libraries': their code is not visited. *)

val length : resolved -> int
(** The number of instructions. *)

val insn : resolved -> int -> int Insn.t
(** The instruction at an address, its branch target absolute.
    @raise Invalid_argument outside [0 .. length - 1]. *)

val symbol : resolved -> string -> int option
val symbol_exn : resolved -> string -> int

val name_at : resolved -> int -> string option
(** The first label at an address, in source order. *)

val iter_symbols : (string -> int -> unit) -> resolved -> unit
(** Every label with its address, in no particular order. *)

val code : resolved -> int Insn.t array
(** A fresh array of every instruction, [insn] at each address: the
    flat code an interpreter fetches from. Costs a pass over the whole
    image; the caller owns the array. *)

val concat : source list -> source
(** Concatenate compilation units (e.g. a program and the millicode library);
    label clashes surface at {!resolve} time. Equal to [List.concat]; the
    cells of every unit but the last are copied, and the result's tail is
    the last unit itself, so a program concatenated with a recorded
    {!library}'s source links without resolving the library again. *)

val pp_source : Format.formatter -> source -> unit
val pp_resolved : Format.formatter -> resolved -> unit
(** Disassembly listing with addresses and label comments. *)
