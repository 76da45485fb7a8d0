let magic = "HPPA1"

let ( let* ) = Result.bind

let to_bytes prog =
  let* words = Encode.encode_fetch (Program.length prog) (Program.insn prog) in
  let n = Array.length words in
  let out = Bytes.create (String.length magic + 4 + (4 * n)) in
  Bytes.blit_string magic 0 out 0 (String.length magic);
  Bytes.set_int32_be out (String.length magic) (Int32.of_int n);
  Array.iteri
    (fun i w -> Bytes.set_int32_be out (String.length magic + 4 + (4 * i)) w)
    words;
  Ok out

let of_bytes b =
  let m = String.length magic in
  if Bytes.length b < m + 4 then Error "image too short"
  else if Bytes.sub_string b 0 m <> magic then Error "bad magic"
  else
    let n = Int32.to_int (Bytes.get_int32_be b m) in
    if n < 0 || Bytes.length b <> m + 4 + (4 * n) then
      Error "truncated or oversized image"
    else
      let words = Array.init n (fun i -> Bytes.get_int32_be b (m + 4 + (4 * i))) in
      Encode.decode_program words

let disassemble insns =
  let buf = Buffer.create 1024 in
  Array.iteri
    (fun addr i ->
      Buffer.add_string buf
        (Format.asprintf "%6d:  %a\n" addr (Insn.pp Format.pp_print_int) i))
    insns;
  Buffer.contents buf
