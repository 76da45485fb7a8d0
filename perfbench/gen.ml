(* Seeded input generators for the four workloads. The same seed gives
   the same inputs; every workload draws from its own stream, so adding
   draws to one workload does not shift another's inputs. *)

module Prng = Hppa_dist.Prng
module D = Hppa_dist.Operand_dist

let rng ~seed stream =
  Prng.create (Int64.add (Int64.mul (Int64.of_int seed) 1_000_003L) (Int64.of_int stream))

let signed g x = if Prng.bool g ~p:0.5 then Int32.neg x else x

(* A non-zero 32-bit constant: log-uniform magnitude, random sign. *)
let rec constant g =
  let c = signed g (D.log_uniform g) in
  if c = 0l then constant g else c

(* A divisor that is never 0 or -1 (dividing the most negative value by
   -1 overflows; C leaves it undefined and the machine and OCaml differ
   on it), weighted towards the small divisors of the paper's section 7. *)
let rec divisor g =
  let d =
    if Prng.bool g ~p:0.6 then signed g (D.small_divisor g) else constant g
  in
  if d = 0l || d = -1l then divisor g else d

(* ------------------------------------------------------------------ *)
(* The socket traffic follows the load generator's models
   (lib/server/load_gen.ml): constants by a zipf law (s = 1.1) over
   ranks 1..1000, rank r being the constant r + 1; MUL with probability
   0.7, else DIV; and, for W64mix, half of the requests a W64 key whose
   verb, signedness and operands derive from a zipf rank.               *)

let mul_share = 0.7

(* serve_hot: the zipf head, ranks 1..[hot_head] (constants 2..65, 72% of
   the zipf mass). The law truncated to the head is the full law
   conditioned on the head, so every timed key is one of the head's keys,
   all warmed before timing. A fixed share of requests are MULB/DIVB
   batches of head constants. *)
let hot_head = 64
let hot_batch_share = 0.1
let hot_batch_lanes = 8

let head_rank g = D.zipf_rank ~support:hot_head g + 1

(* Load_gen's W64 key of a rank. *)
let w64_key rank =
  let verb = match rank mod 3 with 0 -> "W64MUL" | 1 -> "W64DIV" | _ -> "W64REM" in
  let sign = if rank land 1 = 0 then "u" else "s" in
  let x, y = D.w64_pair (Prng.create (Int64.of_int (1_000_000 + rank))) in
  Printf.sprintf "%s %s %Ld %Ld" verb sign x y

type hot = {
  keys : string array;
      (** every distinct scalar request of the head, by rank; all of them
          are warmed before the timed phase *)
  w64 : string array;  (** the W64 key of rank [i + 1] *)
}

(* The same for every seed; the seed draws the request stream. *)
let hot_pool () =
  let w64 = Array.init hot_head (fun i -> w64_key (i + 1)) in
  let keys =
    Array.concat
      (List.init hot_head (fun i ->
           [| Printf.sprintf "MUL %d" (i + 2); Printf.sprintf "DIV %d" (i + 2); w64.(i) |]))
  in
  { keys; w64 }

(* The timed request stream: a function from request index to line, so
   a run draws as many as it has time for; [stream] is distinct per
   phase. Every scalar line is a pool key and every batch lane a head
   constant, so the timed keys are a subset of the warmed keys. *)
let hot_stream pool ~seed ~stream =
  let g = rng ~seed (10 + stream) in
  let verb mul div = if Prng.bool g ~p:mul_share then mul else div in
  fun () ->
    if Prng.bool g ~p:hot_batch_share then
      let verb = verb "MULB" "DIVB" in
      let lanes = List.init hot_batch_lanes (fun _ -> string_of_int (head_rank g + 1)) in
      verb ^ " " ^ String.concat " " lanes
    else if Prng.bool g ~p:0.5 then Printf.sprintf "%s %d" (verb "MUL" "DIV") (head_rank g + 1)
    else pool.w64.(head_rank g - 1)

(* ------------------------------------------------------------------ *)
(* serve_miss: fresh MUL/DIV constants, never repeated within a run and
   never DIV 0.                                                         *)

(* Log-uniform, stratified, with the load generator's 70:30 MUL:DIV
   share: the keys come in rounds of one MUL constant of every bit length
   2..31 and 13 DIV constants of bit lengths spread evenly over 2..31,
   each with a random sign (a negative DIV is a signed divide, a positive
   one unsigned). Plan time grows steeply with the constant (a MUL miss
   takes from 0.1 ms to 100 ms) and varies a lot within one bit length,
   so runs that drew their own constants would each measure a different
   cost mix. The constants of round k are therefore the same for every
   seed, and the seed orders each round: a run always measures the same
   mix. *)
let miss_round =
  List.init 30 (fun i -> ("MUL", i + 2)) @ List.init 13 (fun i -> ("DIV", 2 + (29 * i / 12)))

(* Warm-up keys for a serve_miss set-up, the same for every seed: DIV
   constants of bit lengths no round's DIV uses, so they never come back
   in the timed phase. *)
let miss_warm_keys =
  let g = rng ~seed:0 5 in
  List.map
    (fun bits ->
      let v = Prng.int_range g (1 lsl (bits - 1)) ((1 lsl bits) - 1) in
      Printf.sprintf "DIV %d" (if Prng.bool g ~p:0.5 then -v else v))
    [ 5; 8; 12; 17; 20; 25 ]

(* The keys in order, each with the number of its round. *)
let miss_stream ~seed =
  let values = rng ~seed:0 2 and order = rng ~seed 2 in
  let seen = Hashtbl.create 4096 in
  let queue = Queue.create () and round = ref 0 in
  let draw verb bits =
    let v = Prng.int_range values (1 lsl (bits - 1)) ((1 lsl bits) - 1) in
    Printf.sprintf "%s %d" verb (if Prng.bool values ~p:0.5 then -v else v)
  in
  (* A short bit length runs out of fresh values after a few rounds; its
     slot is then left out of the round. *)
  let rec fresh verb bits tries =
    if tries = 0 then None
    else
      let line = draw verb bits in
      if Hashtbl.mem seen line then fresh verb bits (tries - 1)
      else begin
        Hashtbl.add seen line ();
        Some line
      end
  in
  let refill () =
    incr round;
    let a = Array.of_list (List.filter_map (fun (v, b) -> fresh v b 8) miss_round) in
    for i = Array.length a - 1 downto 1 do
      let j = Prng.int_range order 0 i in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.iter (fun k -> Queue.push (!round, k) queue) a
  in
  fun () ->
    if Queue.is_empty queue then refill ();
    Queue.pop queue

(* ------------------------------------------------------------------ *)
(* sim_kernels: the paper's millicode entries over the Figure-5 operand
   mix and small-divisor-heavy divisors, plus the W64 family.           *)

type kernel = {
  entry : string;
  paper : bool;  (** one of the paper's 32-bit entries *)
  args : int32 list array;
}

let sim_calls_per_kernel = 256

let sim_kernels ~seed =
  let g = rng ~seed 3 in
  let n = sim_calls_per_kernel in
  let words l = List.concat_map (fun v -> [ Hppa_w64.hi32 v; Hppa_w64.lo32 v ]) l in
  let pair () =
    let x, y = D.figure5_pair g in
    [ x; y ]
  in
  let dividend ~signed_ =
    let x = D.log_uniform g in
    if signed_ then signed g x else x
  in
  let div_args ~signed_ () =
    let d = divisor g in
    [ dividend ~signed_; (if signed_ then d else Int32.abs d) ]
  in
  let w64_mul ~signed_ () =
    let x = D.log_uniform64 g and y = D.log_uniform64 g in
    let s v = if signed_ && Prng.bool g ~p:0.5 then Int64.neg v else v in
    words [ s x; s y ]
  in
  let w64_div () =
    let x, y = D.w64_pair g in
    words [ x; y ]
  in
  let divl () =
    let y = Int64.add 1L (D.log_uniform64 g) in
    let xhi = Int64.unsigned_rem (Prng.next64 g) y in
    Hppa_w64.operands_divl ~xhi ~xlo:(Prng.next64 g) y
  in
  let k ?(paper = false) entry f = { entry; paper; args = Array.init n (fun _ -> f ()) } in
  [
    k ~paper:true "mulI" pair;
    k ~paper:true "mulU64" pair;
    k ~paper:true "divU" (div_args ~signed_:false);
    k ~paper:true "divI" (div_args ~signed_:true);
    k ~paper:true "remU" (div_args ~signed_:false);
    k ~paper:true "remI" (div_args ~signed_:true);
    k "mulU128" (w64_mul ~signed_:false);
    k "mulI128" (w64_mul ~signed_:true);
    k "divU64w" w64_div;
    k "divI64w" w64_div;
    k "remU64w" w64_div;
    k "remI64w" w64_div;
    k "divU128by64" divl;
  ]

(* ------------------------------------------------------------------ *)
(* compile: Expr and Loop_ir programs with constant * / % at W32 and
   W64. The timed loop compiles the corpus over and over, so every
   constant repeats and chain search is warm.                           *)

open Hppa_compiler

type program =
  | Expr of { width : Expr.width; e : Expr.t; certified : bool }
  | Loop of { width : Expr.width; loop : Loop_ir.t; reduce : bool }

type case = { id : int; program : program; inputs : (int64 * int64) list }

let corpus_size = 48
let inputs_per_program = 8

(* Programs (tree structure, widths, trip counts, constants) come from
   fixed streams, the same for every seed; the seed picks the inputs. A
   shape decides whether a divide runs inside a loop, which swings the
   mean simulated cycles far more than any constant does; and the
   constants decide much of the compile and set-up time, so seeded
   constants made every seed time a different amount of work (over five
   seeds, compile rate spread 17% and set-up time 28%, quartile to
   quartile). *)
let corpus ~seed =
  let shape = rng ~seed:0 4 and consts = rng ~seed:0 6 and g = rng ~seed 4 in
  (* Small constants get an inline chain or reciprocal, large ones
     usually a millicode call. *)
  let c () =
    let v =
      if Prng.bool shape ~p:0.5 then Prng.int_range consts 2 30
      else Prng.int_range consts 65536 0x7fff_ffff
    in
    Int32.of_int (if Prng.bool consts ~p:0.5 then -v else v)
  in
  let const width =
    match width with
    | Expr.W32 -> Expr.Const (c ())
    | Expr.W64 ->
        if Prng.bool shape ~p:0.5 then Expr.Const (c ())
        else Expr.Const64 (Int64.mul (Int64.of_int32 (c ())) 65537L)
  in
  let rec expr width vars depth =
    let leaf () = Expr.Var vars.(Prng.int_range shape 0 (Array.length vars - 1)) in
    if depth = 0 then leaf ()
    else
      let sub () = expr width vars (depth - 1) in
      match Prng.int_range shape 0 6 with
      | 0 -> Expr.Add (sub (), sub ())
      | 1 -> Expr.Sub (sub (), sub ())
      | 2 | 3 -> Expr.Mul (sub (), const width)
      | 4 -> Expr.Div (sub (), const width)
      | 5 -> Expr.Rem (sub (), const width)
      | _ -> Expr.Neg (sub ())
  in
  let value width =
    match width with
    | Expr.W32 -> Int64.of_int32 (signed g (D.log_uniform g))
    | Expr.W64 ->
        let v = D.log_uniform64 g in
        if Prng.bool g ~p:0.5 then Int64.neg v else v
  in
  List.init corpus_size (fun id ->
      let width = if id mod 2 = 0 then Expr.W32 else Expr.W64 in
      let program =
        if id mod 4 < 2 then
          Expr
            {
              width;
              e = expr width [| "x"; "y" |] (Prng.int_range shape 2 3);
              certified = id mod 8 < 4;
            }
        else
          let step = Prng.int_range shape 1 3 in
          let trip = Prng.int_range shape 4 16 in
          let start = Prng.int_range shape (-8) 8 in
          let body =
            [
              Loop_ir.Assign
                ( "acc",
                  Expr.Add
                    (Expr.Var "acc", Expr.Mul (Expr.Var "i", const width)) );
              Loop_ir.Assign
                ("acc", expr width [| "acc"; "n"; "i" |] (Prng.int_range shape 1 2));
            ]
          in
          Loop
            {
              width;
              loop =
                {
                  Loop_ir.counter = "i";
                  start = Int32.of_int start;
                  stop = Int32.of_int (start + (trip * step));
                  step = Int32.of_int step;
                  body;
                };
              reduce = id mod 8 >= 6;
            }
      in
      let inputs =
        List.init inputs_per_program (fun _ -> (value width, value width))
      in
      { id; program; inputs })
