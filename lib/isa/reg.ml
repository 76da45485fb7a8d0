type t = int

let of_int n =
  if n < 0 || n > 31 then invalid_arg "Reg.of_int: register out of range";
  n

let to_int n = n
let equal = Int.equal
let compare = Int.compare
let r0 = 0
let rp = 2
let sp = 30
let arg0 = 26
let arg1 = 25
let arg2 = 24
let arg3 = 23
let ret0 = 28
let ret1 = 29
let mrp = 31
let t1 = 1
let t2 = 19
let t3 = 20
let t4 = 21
let t5 = 22
let names = Array.init 32 (fun n -> "r" ^ string_of_int n)
let name n = names.(n)

let aliases =
  [
    ("rp", rp); ("sp", sp); ("arg0", arg0); ("arg1", arg1); ("arg2", arg2);
    ("arg3", arg3); ("ret0", ret0); ("ret1", ret1); ("mrp", mrp);
  ]

let of_name s =
  match List.assoc_opt s aliases with
  | Some r -> Some r
  | None ->
      if String.length s >= 2 && s.[0] = 'r' then
        match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
        | Some n when n >= 0 && n <= 31 -> Some n
        | Some _ | None -> None
      else None

let pp ppf n = Format.pp_print_string ppf (name n)
let all = List.init 32 (fun i -> i)
