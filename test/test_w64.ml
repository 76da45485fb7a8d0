(* Differential coverage for the W64 (double-word) millicode family:
   every row of Hppa_w64's kernel table, at each signedness, pinned
   against the row's two-word OCaml reference on the reference
   interpreter, the scalar threaded engine, and the batch engine, over
   boundary operands, seeded sweeps and QCheck. *)

module Word = Hppa_word.Word
module Machine = Hppa_machine.Machine
module Batch = Hppa_machine.Machine.Batch
module Trap = Hppa_machine.Trap
module W64 = Hppa_w64
open Hppa

let interp =
  lazy
    (Millicode.machine
       ~config:{ Machine.Config.default with engine = false }
       ())

let scalar = lazy (Millicode.machine ())

(* Every (kernel, signedness) the wire serves, from Hppa_w64's table,
   pinned against the row's own reference model. *)
let name (k, signed) = W64.kernel_entry k ~signed

let pp_dwords = Fmt.(list ~sep:sp (fmt "0x%Lx"))

let check_on mach label (k, signed) xs =
  let got = W64.call (Lazy.force mach) k ~signed xs in
  let want = k.W64.reference ~signed xs in
  if not (W64.outcome_equal got want) then
    Alcotest.failf "%s %s %a = %a want %a" label (name (k, signed)) pp_dwords
      xs W64.pp_outcome got W64.pp_outcome want

let check run xs =
  check_on interp "interp" run xs;
  check_on scalar "engine" run xs

(* The issue's boundary set plus a few neighbours. *)
let boundary =
  [
    0L; 1L; 2L; 3L; 0xffffffffL; 0x100000000L; 0x100000001L; 0x7fffffffL;
    0x80000000L; Int64.max_int; Int64.min_int; -1L; -2L; -0x100000000L;
    0x123456789abcdefL; 0xdeadbeefcafebabeL;
  ]

let arity (k, _) = List.length k.W64.args

(* A row's operand dwords from an (x, y) pair: the two-operand rows take
   it as is; the 128/64 divide takes the dividend (x mod y : not x) over
   y, whose quotient fits a dword (a zero y traps either way). *)
let lane run (x, y) =
  if arity run = 2 then [ x; y ]
  else
    [
      (if Int64.equal y 0L then x else Int64.unsigned_rem x y);
      Int64.lognot x;
      y;
    ]

let test_boundary_sweep () =
  List.iter
    (fun run ->
      List.iter
        (fun x -> List.iter (fun y -> check run (lane run (x, y))) boundary)
        boundary)
    W64.runs

let test_trap_lanes () =
  List.iter
    (fun run ->
      List.iter
        (fun x -> check run (lane run (x, 0L)))
        [ 0L; 1L; Int64.min_int; -1L; 0x123456789abcdefL ];
      (* Signed quotient overflow: -2^63 / -1 breaks; unsigned does not. *)
      check run (lane run (Int64.min_int, -1L));
      (* The 128/64 quotient overflows once the dividend's high dword
         reaches the divisor. *)
      if arity run = 3 then check run [ 5L; 0L; 5L ])
    W64.runs

let seeded_operands n =
  let g = Hppa_dist.Prng.create 0x57364L in
  List.init n (fun _ ->
      let x = Hppa_dist.Prng.next64 g in
      (* Mix full-range and high-word-zero operands so both divide paths
         run. *)
      let y =
        let r = Hppa_dist.Prng.next64 g in
        if Hppa_dist.Prng.bool g ~p:0.5 then Int64.logand r 0xffffffffL
        else r
      in
      (x, y))

let test_seeded_sweep () =
  let pairs = seeded_operands 400 in
  List.iter
    (fun run -> List.iter (fun p -> check run (lane run p)) pairs)
    W64.runs

(* Batch engine: every row over the seeded pairs, trap lanes mixed in,
   each lane pinned against the reference. *)
let test_batch_differential () =
  let pairs =
    seeded_operands 61 @ [ (5L, 0L); (Int64.min_int, -1L); (42L, 7L) ]
  in
  let lanes = List.length pairs in
  let b = Batch.create ~lanes (Millicode.resolved ()) in
  List.iter
    (fun ((k, signed) as run) ->
      let dwords = List.map (lane run) pairs in
      Batch.call b (name run)
        ~args:(Array.of_list (List.map k.W64.pack dwords));
      List.iteri
        (fun i xs ->
          let got = W64.batch_outcome b ~lane:i in
          let want = k.W64.reference ~signed xs in
          if not (W64.outcome_equal got want) then
            Alcotest.failf "batch %s lane %d %a = %a want %a" (name run) i
              pp_dwords xs W64.pp_outcome got W64.pp_outcome want)
        dwords)
    W64.runs

let arb_i64 =
  let open QCheck in
  let gen =
    Gen.frequency
      [
        (4, Gen.map Int64.of_int Gen.int);
        (3, Gen.map (fun i -> Int64.of_int32 (Int32.of_int i)) Gen.int);
        ( 2,
          Gen.map2
            (fun hi lo ->
              Int64.logor (Int64.shift_left (Int64.of_int hi) 32)
                (Int64.of_int lo))
            (Gen.int_bound 0xffffffff) (Gen.int_bound 0xffffffff) );
        (2, Gen.oneofl boundary);
      ]
  in
  make ~print:(Printf.sprintf "0x%Lx") gen

let prop run =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s = two-word reference" (name run))
    ~count:1000
    (QCheck.pair arb_i64 arb_i64)
    (fun p ->
      let k, signed = run and xs = lane run p in
      W64.outcome_equal
        (W64.call (Lazy.force scalar) k ~signed xs)
        (k.W64.reference ~signed xs))

let suite =
  [
    ( "w64",
      [
        Alcotest.test_case "boundary sweep (interp + engine)" `Quick
          test_boundary_sweep;
        Alcotest.test_case "trap lanes" `Quick test_trap_lanes;
        Alcotest.test_case "seeded sweep" `Quick test_seeded_sweep;
        Alcotest.test_case "batch engine differential" `Quick
          test_batch_differential;
      ] );
    Util.qsuite "w64.qcheck" (List.map prop W64.runs);
  ]
