(* Pins for the constant planner's large-constant descent: golden rule
   chains and a digest of the plan service's MUL/DIV replies, both
   captured from the chain-rebuilding descent before it was rewritten to
   compare costs, plus the properties the rewrite relies on — results
   are history-independent, identical from concurrent domains, and the
   per-domain cache stays bounded — and those of the shared table's
   seed chains and of the descent's division-free factor tests. Do not
   regenerate the pinned values from current output to make a failure go
   away: a mismatch means the chosen chains, and with them reply bytes
   and cycle counts, changed. *)

open Hppa
module Plan = Hppa_server.Plan
module Strategy = Hppa_plan.Strategy
module Selector = Hppa_plan.Selector
module Certificate = Hppa_verify.Certificate

let render_step = function
  | Chain.Add (j, k) -> Printf.sprintf "a%d,%d" j k
  | Shadd (m, j, k) -> Printf.sprintf "s%d:%d,%d" m j k
  | Sub (j, k) -> Printf.sprintf "u%d,%d" j k
  | Shl (j, m) -> Printf.sprintf "l%d:%d" j m

let render = function
  | None -> "none"
  | Some c -> String.concat " " (List.map render_step c)

(* ------------------------------------------------------------------ *)
(* Golden chains: (n, Fast chain, Monotonic chain), 17 to 31 bits      *)

let golden_chains =
  [
    (111712, "s1:1,1 s3:2,2 l3:7 a4,3 s3:1,5 l6:5", "s1:1,1 s3:2,2 s2:3,1 a4,4 s3:5,1 s1:6,1 s3:7,0 s2:8,0");
    (86328, "s1:1,1 s3:2,2 s2:3,1 s1:4,4 l5:5 a6,5 l7:3", "s2:1,0 s3:2,1 s2:3,1 s3:4,4 s1:1,5 s3:6,6 s3:7,0");
    (117626, "l1:1 s3:2,1 s3:3,3 s3:4,1 s2:5,1 s1:6,6 s2:7,1 l8:1", "a1,1 s3:2,1 s3:3,3 s3:4,1 s2:5,1 s1:6,6 s2:7,1 s1:8,0");
    (94398, "s2:1,1 s3:2,1 l3:7 u4,3 s3:4,5 s3:1,6 l7:1", "s1:1,1 s3:2,2 s2:3,1 s2:4,1 s3:5,5 s2:6,1 s1:7,7 s1:8,0");
    (117238, "s3:1,1 s3:2,1 s1:3,3 s3:3,4 s3:5,5 s3:6,5 l7:1", "s3:1,1 s3:2,1 s1:3,3 s3:3,4 s3:5,5 s3:6,5 s1:7,0");
    (258106, "l1:10 s1:1,2 s3:2,3 l4:3 u5,4 s1:6,1 l7:1", "s1:1,1 s1:2,1 s3:3,0 s3:4,0 s3:5,5 s3:6,3 s2:7,1 s1:8,0");
    (225463, "s1:1,1 s3:2,1 s2:3,1 s3:4,4 s3:5,1 l6:5 u7,6", "s3:1,1 s3:2,1 s2:3,1 s1:4,1 s3:5,1 s3:6,1 s1:7,7 s1:8,1");
    (140547, "l1:4 u2,1 s2:3,1 s1:4,4 l5:5 s3:6,1 s1:7,7", "s1:1,1 s2:2,2 s2:3,1 s1:4,4 s2:5,0 s3:6,0 s3:7,1 s1:8,8");
    (178750, "u0,1 s3:1,2 s3:3,2 s2:4,4 l5:6 a6,5 s2:7,7 l8:1", "s1:1,1 s3:1,2 s3:3,0 s3:4,3 s2:5,5 s2:6,6 s2:7,7 s1:8,0");
    (173933, "l1:2 s3:2,1 s1:3,1 s3:4,4 s3:5,5 s3:6,4 s2:7,1", "s2:1,0 s3:2,1 s1:3,1 s3:4,4 s3:5,5 s3:6,4 s2:7,1");
    (380203, "l1:7 s2:1,2 s3:3,3 s3:4,1 s2:5,5 s2:6,1 s1:7,1", "s2:1,0 s3:2,1 s2:3,0 s3:4,4 s3:5,1 s2:6,6 s2:7,1 s1:8,1");
    (389195, "l1:11 s3:2,2 s1:3,2 s3:1,4 u5,1 s1:6,1 s2:7,7", "s3:1,1 s1:2,1 s2:3,3 s3:4,0 s3:5,1 s3:6,1 s2:7,1 s1:8,1");
    (508451, "s2:1,1 s3:2,1 l3:5 u4,3 s3:5,1 s2:6,6 s2:7,7 s1:8,1", "s1:1,1 s2:2,2 s1:3,1 s2:4,4 s3:5,4 s3:6,1 s2:7,7 s2:8,8 s1:9,1");
    (518477, "l1:2 s3:1,2 s3:3,2 s3:4,4 s3:5,1 s3:6,6 s1:7,1 s2:8,1", "s2:1,0 s2:2,2 s2:3,3 s3:4,4 s3:5,1 s3:6,6 s1:7,1 s2:8,1");
    (430895, "l1:8 s2:2,2 s2:3,2 s1:1,4 s3:1,5 s3:6,1 s1:7,1 s2:8,8", "s2:1,1 s2:2,1 s2:3,0 s3:4,1 s2:5,1 a6,6 s3:7,1 s1:8,1 s2:9,9");
    (659288, "l1:10 s1:1,1 s1:3,2 s3:4,1 s2:5,5 s1:6,1 l7:3", "s2:1,1 s3:2,1 s1:3,3 s3:4,3 s3:5,3 s2:6,6 s1:7,1 s3:8,0");
    (662280, "s1:1,1 s3:2,2 l3:9 u4,3 s1:5,1 s1:6,6 l7:3", "s2:1,1 s2:2,1 s3:3,3 s3:4,3 s3:5,5 s1:6,1 s1:7,7 s3:8,0");
    (569607, "s3:1,1 s3:2,1 s2:3,1 s3:4,4 s3:5,5 s1:6,1 s2:7,1 s1:8,8", "s3:1,1 s3:2,1 s2:3,1 s3:4,4 s3:5,5 s1:6,1 s2:7,1 s1:8,8");
    (898290, "s3:1,1 l2:8 s1:3,3 s2:4,3 u5,2 s2:6,6 s1:7,7 l8:1", "s3:1,1 s1:2,1 s2:3,1 s3:4,4 s3:5,1 s3:6,6 s3:7,7 s1:8,0");
    (839921, "l1:4 s2:2,2 s3:3,2 s3:4,1 s1:5,1 s2:6,6 l7:3 s1:8,1", "s2:1,1 s3:2,1 a3,3 s3:4,0 s3:5,1 s1:6,1 s2:7,7 s3:8,0 s1:9,1");
    (1270287, "l1:10 s1:1,2 s2:2,3 s3:4,1 l5:5 u6,5", "s2:1,1 s3:2,2 s3:3,3 s3:1,4 s1:5,1 s3:6,0 s3:7,0 s1:8,1 s2:9,1 s1:10,10");
    (1872496, "l1:4 u2,1 l3:6 a4,3 s2:5,1 l6:4 u7,6 s1:8,1 l9:4", "s3:1,0 s3:2,1 s1:3,3 s2:4,4 s2:5,1 s1:6,6 s2:7,7 s1:8,1 s3:9,0 s1:10,0");
    (2058072, "l1:8 s3:1,2 s1:3,3 s1:1,4 s1:5,5 s3:6,6 s2:7,1 s1:8,8 l9:3", "s1:1,1 s3:1,2 s3:3,3 s2:4,1 s1:5,5 s3:6,6 s3:7,1 s1:8,8 s3:9,0");
    (1288438, "s3:1,1 s2:2,1 l3:4 a4,3 s3:5,1 l6:4 u7,1 s2:8,1 s1:9,1 l10:1", "s2:1,0 s3:2,1 s1:3,1 s2:4,4 s1:5,1 s2:6,6 s2:7,1 s1:8,8 s1:9,1 s2:10,1 s1:11,1 s1:12,0");
    (1552280, "l1:4 u2,1 s2:3,3 s1:4,1 l5:8 a6,5 s2:7,7 l8:3", "s1:1,1 s2:2,2 s2:3,3 s1:4,1 s2:5,0 s3:6,0 s3:7,5 s2:8,8 s3:9,0");
    (2512184, "l1:7 s3:2,1 s1:3,2 s1:4,4 s3:1,5 s3:6,1 s1:7,7 s1:8,1 l9:3", "s1:1,1 s3:2,2 s2:3,1 s3:4,4 s2:5,1 s2:6,1 s2:7,7 s1:8,1 s1:9,1 s3:10,0");
    (3338015, "l1:5 s3:2,1 s1:3,1 s3:4,1 s3:5,5 s3:6,6 s1:7,1 s2:8,8", "s2:1,0 s3:2,0 s3:3,1 s1:4,1 s3:5,1 s3:6,6 s3:7,7 s1:8,1 s2:9,9");
    (3858612, "l1:6 u2,1 s2:2,3 l4:6 u5,4 l6:4 u7,1 s1:8,8 l9:2", "s2:1,1 s3:2,0 s3:3,1 s1:4,1 s2:5,5 s1:6,1 s2:7,7 s2:8,8 s1:9,1 s1:10,10 s2:11,0");
    (3613448, "s3:1,1 s3:2,1 s1:3,1 l4:7 s2:1,5 s1:6,6 s3:7,1 l8:3", "s3:1,1 s3:2,1 s1:3,1 s2:4,0 s3:5,1 s1:6,6 s3:7,0 s2:8,1 s3:9,0");
    (3968863, "s2:1,1 s2:2,1 s2:3,3 s3:4,3 s3:5,5 s3:6,3 s1:7,1 l8:5 u9,1", "s1:1,1 s1:2,1 s2:3,3 s3:4,3 s3:5,5 s3:6,3 s3:7,1 s2:8,1 s1:9,9 s1:10,1");
    (6855747, "l1:8 u2,1 s2:3,3 s2:4,1 l5:3 u6,5 l7:5 s1:8,1 s1:9,9", "s2:1,0 s3:2,1 s1:3,3 s2:4,4 s3:5,5 s2:6,3 s1:7,1 s3:8,0 s3:9,1 s1:10,10");
    (6125690, "s3:1,1 s1:2,1 l3:5 u4,3 l5:6 a6,5 s1:7,1 s3:8,1 s2:9,9 l10:1", "s3:1,0 s3:2,1 s3:3,3 s3:4,3 s1:5,3 s2:6,3 s1:7,1 s3:8,1 s2:9,9 s1:10,0");
    (8382155, "l1:10 s2:2,1 s3:3,2 u4,1 l5:5 u6,5 s2:7,1 s1:8,1", "s1:1,1 s2:2,0 s3:3,1 s3:4,0 s3:5,1 s3:6,6 s2:7,7 s1:8,8 s1:9,1 s2:10,10");
    (8188647, "s1:1,1 s3:2,1 l3:11 u4,3 s2:1,5 s2:6,6 s3:7,1 s1:8,1 s1:9,1", "s3:1,1 s2:2,1 s3:3,3 s3:4,1 s1:5,1 s3:6,1 s3:7,1 s1:8,1 s2:9,1 s1:10,10");
    (4822948, "l1:7 u1,2 s3:2,3 s3:4,1 l5:3 u6,5 s1:7,7 s3:8,1 l9:2", "s2:1,1 s3:2,1 a3,3 s3:4,3 s1:5,5 s3:6,6 s1:7,3 s2:8,1 s3:9,1 s2:10,0");
    (11603564, "l1:9 s3:1,1 u2,3 s1:4,1 s2:5,1 s3:6,6 s3:7,1 s2:8,8 s1:9,1 l10:2", "s3:1,1 s2:2,1 s1:3,3 s3:4,4 s3:1,5 s2:6,1 s3:7,7 s3:8,1 s2:9,9 s1:10,1 s2:11,0");
    (11137179, "l1:2 s2:2,2 s3:3,1 s3:4,1 s2:5,5 s3:6,1 s3:7,7 s3:8,1 s1:9,9", "s2:1,0 s2:2,2 s3:3,1 s3:4,1 s2:5,5 s3:6,1 s3:7,7 s3:8,1 s1:9,9");
    (13779658, "l1:7 u1,2 s3:2,3 s2:4,4 s1:5,1 s3:6,1 s1:7,7 s3:8,1 s2:9,1 l10:1", "s3:1,0 s3:2,1 a3,3 s3:4,3 s2:5,3 s1:6,1 s3:7,1 s1:8,8 s3:9,1 s2:10,1 s1:11,0");
    (12347109, "l1:3 s2:2,2 s2:3,2 s3:4,1 l5:8 u6,5 s2:7,1 s3:8,8", "a1,1 s3:2,1 s2:3,3 s2:4,3 s3:5,0 s3:6,3 s2:7,7 s1:8,8 s2:9,1 s3:10,10");
    (8969878, "s2:1,1 s3:2,2 s3:3,2 l4:6 u5,1 s1:6,6 s3:7,1 s2:8,1 s1:9,1 l10:1", "s1:1,1 s3:2,2 s3:3,3 s2:4,1 s2:5,1 s1:6,6 s1:7,1 s1:8,8 s3:9,1 s2:10,1 s1:11,1 s1:12,0");
    (27263489, "l1:9 s1:2,2 s2:3,2 s3:4,1 l5:8 s1:6,1", "s1:1,1 s2:2,1 s3:3,0 s3:4,0 s3:5,0 s3:6,1 s3:7,0 s3:8,0 s3:9,1");
    (19931950, "l1:7 s3:2,1 s2:3,1 s3:4,4 s1:1,5 s3:6,6 s1:7,7 s1:8,1 s2:9,9 l10:1", "s2:1,1 s3:2,1 s2:3,3 s3:4,4 s1:5,1 s2:6,6 s1:7,1 s3:8,8 s1:9,9 s1:10,1 s2:11,11 s1:12,0");
    (29051542, "s2:1,1 s3:2,2 l3:6 u4,3 s1:1,5 a6,6 s3:7,1 l8:4 s1:9,1 s2:10,10 s1:11,1 l12:1", "s2:1,1 s2:2,1 s3:3,3 s3:4,1 s2:5,5 s1:6,1 s1:7,7 s3:8,0 s2:9,1 s2:10,10 s1:11,1 s1:12,0");
    (18886724, "l1:12 s2:1,2 s1:3,2 s1:4,4 s3:5,1 l6:3 s1:7,1 l8:2", "s1:1,1 s3:2,0 s3:3,0 s3:4,1 s1:5,5 s3:6,0 s3:7,1 s3:8,0 s1:9,1 s2:10,0");
    (17411356, "l1:7 s3:1,2 s2:3,3 s3:4,1 s2:5,5 s2:6,1 s2:7,7 l8:3 u9,1 l10:2", "s1:1,1 s2:2,2 s1:3,1 s3:4,4 s3:5,5 s3:1,6 s3:7,7 s3:8,0 s2:9,1 s1:10,10 s1:11,1 s2:12,0");
    (52377814, "s1:1,1 s3:2,1 l3:10 u4,3 l5:3 s1:6,1 s1:7,1 s2:8,1 s2:9,1 s1:10,1 l11:1", "s1:1,1 s2:2,1 s2:3,1 s2:4,1 s3:5,1 s2:6,6 s3:7,0 s2:8,1 s1:9,9 s2:10,1 s2:11,1 s1:12,1 s1:13,0");
    (61856404, "l1:9 s2:1,2 s2:3,2 s1:4,4 s2:1,5 s2:6,6 s2:7,1 s2:8,8 s2:9,9 s2:10,1 l11:2", "s3:1,1 s1:2,1 s2:3,3 s2:4,3 s3:5,3 s1:6,3 s3:7,3 s2:8,8 s2:9,9 s1:10,10 s2:11,1 s2:12,0");
    (65914000, "s3:1,1 s2:2,1 s2:3,1 s1:4,4 l5:4 s3:6,1 s3:7,7 s3:8,1 l9:4", "s3:1,1 s2:2,1 s2:3,1 s3:4,0 s3:5,5 s3:6,1 s1:7,1 s1:8,8 s3:9,1 s3:10,0 s1:11,0");
    (54157728, "l1:1 s3:2,1 s2:3,1 l4:9 u5,4 l6:4 u7,1 s1:8,8 l9:5", "s2:1,1 s3:2,2 s3:3,3 s3:1,4 s3:5,1 s1:6,1 s3:7,0 s2:8,1 s1:9,1 s2:10,1 s3:11,0 s2:12,0");
    (55004124, "u0,1 s3:1,2 l3:9 u4,3 s2:1,5 s2:6,6 l7:6 u8,1 s2:9,1 s1:10,10 l11:2", "s3:1,1 s3:2,1 s2:3,3 s3:1,4 s3:5,0 s3:6,1 s2:7,1 s2:8,1 s1:9,9 s2:10,1 s1:11,11 s2:12,0");
    (113345711, "l1:12 s2:1,2 s3:3,2 s2:4,1 s1:5,1 s3:6,1 s1:7,7 l8:4 u9,1", "s1:1,1 s3:1,2 s2:3,0 s2:4,4 s3:5,3 s2:6,6 s3:7,1 s3:8,0 s1:9,1 s2:10,10 s1:11,1 s2:12,12 s1:13,1");
    (92740155, "l1:5 u2,1 s1:3,2 s3:4,1 s2:5,1 l6:9 a7,6 s2:8,1 s2:9,9 s1:10,10", "s2:1,0 s3:2,1 s3:3,1 s3:4,4 s2:5,1 s1:6,6 s1:7,1 s3:8,8 s1:9,9 s2:10,1 s2:11,11 s1:12,12");
    (114673185, "l1:5 s3:2,2 s3:3,2 u4,1 s2:5,1 s2:6,1 l7:10 u8,7 s1:9,9", "s2:1,1 s3:2,2 s1:3,1 s2:4,0 s3:5,1 s3:6,6 s3:7,7 s3:8,8 s1:9,1 s3:10,10 s1:11,11");
    (97280413, "l1:11 s2:1,1 u2,3 l4:5 u5,4 s1:6,1 s3:7,1 s1:8,1 s2:9,1 s1:10,10 s2:11,1", "s3:1,0 s3:2,1 s3:3,1 s2:4,1 s3:5,5 s1:6,1 s3:7,7 s1:8,8 s1:9,1 s2:10,1 s1:11,11 s2:12,1");
    (104518030, "l1:3 s1:2,2 l3:6 u4,3 s3:5,1 s3:6,6 l7:4 u8,1 s1:9,9 s1:10,1 s2:11,11 l12:1", "a1,1 s3:2,1 s1:3,3 s3:4,0 s3:5,0 s3:6,3 s1:7,1 s2:8,8 s2:9,9 s2:10,1 s1:11,1 s2:12,12 s1:13,0");
    (202611392, "l1:12 s3:1,1 s1:3,2 s3:1,4 s3:5,1 s1:6,6 s2:7,1 s2:8,1 s1:9,1 l10:6", "s3:1,1 s1:2,1 s2:3,1 s2:4,1 s3:5,1 s2:6,1 s3:7,1 s2:8,8 s2:9,1 s1:10,1 s3:11,0 s3:12,0");
    (172614033, "l1:8 s3:2,1 s3:3,2 s1:4,4 s1:1,5 s3:6,1 s1:7,1 s1:8,8 s3:9,1 s3:10,10", "s3:1,0 s3:2,1 s2:3,0 s3:4,1 s1:5,5 s2:6,1 s1:7,7 s2:8,1 s3:9,1 s3:10,1 s3:11,11");
    (198115827, "l1:4 s1:2,2 l3:6 u4,3 u5,1 l6:6 s1:7,1 l8:5 u9,1 s3:10,1 s1:11,1", "s1:1,1 s3:1,2 s3:3,1 s1:4,1 s3:5,1 s3:6,1 s2:7,7 s1:8,8 s1:9,1 s1:10,10 s2:11,1 s3:12,0 s1:13,1 s1:14,14");
    (222532559, "l1:6 u2,1 l3:9 u4,3 s1:1,5 s1:6,6 s2:7,1 s2:8,1 s3:9,9 l10:4 u11,1", "s1:1,1 s3:2,1 s3:3,1 s3:4,1 s1:5,1 s1:6,1 s3:7,7 s1:8,8 s1:9,1 s2:10,10 s1:11,1 s3:12,1 s1:13,1 s1:14,1 s1:15,1");
    (261948582, "s1:1,1 s3:2,2 s2:3,2 s3:4,4 s2:5,1 l6:5 s1:7,1 s3:8,1 s2:9,1 s3:10,1 s1:11,1 l12:1", "s3:1,1 s2:2,1 s1:3,3 s3:4,4 s2:5,1 s3:6,0 s3:7,1 s3:8,1 s2:9,1 s3:10,1 s1:11,1 s1:12,0");
    (444848391, "l1:4 u2,1 s1:2,3 l4:6 s3:5,4 s1:6,4 s3:7,1 s3:8,1 l9:4 u10,1 s3:11,11", "s2:1,1 s3:2,2 s2:3,1 s1:4,4 s2:5,5 s3:6,1 s2:7,7 s1:8,1 s3:9,1 s3:10,0 s3:11,1 s1:12,1 s1:13,1");
    (512695209, "l1:11 s3:1,1 s2:3,2 s1:1,4 s3:5,1 s2:6,1 s3:7,1 s1:8,1 s2:9,9 s1:10,10 s2:11,1 s3:12,1", "s3:1,0 s3:2,1 s3:3,1 s1:4,1 a5,5 s3:6,1 s2:7,1 s3:8,1 s1:9,1 s2:10,10 s1:11,11 s2:12,1 s3:13,1");
    (418145650, "s2:1,1 l2:8 s2:3,2 s2:4,3 s1:5,5 u6,2 s2:7,1 l8:4 s1:9,1 s2:10,10 s2:11,11 l12:1", "s3:1,1 s3:2,1 s1:3,3 s3:3,4 s3:5,3 s1:6,3 s2:7,7 s2:8,1 s3:9,0 s2:10,1 s2:11,11 s2:12,12 s1:13,0");
    (466331413, "l1:6 u2,1 s2:3,1 l4:9 s1:5,1 s2:6,6 s2:7,7 s1:8,8 s1:9,1 s1:10,10 s2:11,1", "s1:1,1 s1:2,1 s3:3,3 s2:4,1 s3:5,0 s3:6,0 s3:7,0 s1:8,1 s2:9,9 s2:10,10 s1:11,11 s1:12,1 s1:13,13 s2:14,1");
    (386680257, "l1:4 s3:2,1 s2:3,3 s1:4,1 l5:6 a6,5 l7:6 u8,1 s3:9,1 s3:10,10", "s2:1,1 s2:2,1 s1:3,1 s3:4,0 s3:5,4 s2:6,6 s2:7,4 s2:8,1 s2:9,1 s3:10,1 s1:11,1 s3:12,12 s1:13,13");
    (812923947, "l1:7 s3:1,2 s3:3,1 l4:6 u5,1 s3:6,1 s3:7,7 s3:8,8 s1:9,1 s3:10,10", "a1,1 s3:2,2 s3:3,1 s1:4,4 s1:5,1 s3:6,1 s1:7,1 s2:8,8 s3:9,1 s3:10,10 s3:11,11 s1:12,1 s3:13,13");
    (615126903, "l1:6 s2:1,1 u2,3 s3:4,1 l5:7 u6,5 l7:6 u8,1 s3:9,1 s2:10,10 s1:11,1 s1:12,1", "s3:1,0 s3:2,1 s3:3,3 s3:4,3 s1:5,5 s2:1,6 s1:7,7 s3:8,1 s1:9,9 s1:10,1 s2:11,11 s2:12,12 s2:13,1 s1:14,14");
    (1005732524, "l1:10 u2,1 s1:3,3 s2:4,1 l5:6 s1:6,1 l7:3 s1:8,1 s2:9,9 s1:10,1 l11:2", "a1,1 s3:2,1 s2:3,3 s2:4,1 s3:5,5 s2:6,1 s3:7,0 s3:8,0 s1:9,1 s3:10,0 s1:11,1 s2:12,12 s1:13,1 s2:14,0");
    (914646892, "u0,1 s3:1,2 s3:3,2 l4:10 u5,4 s3:6,1 s1:7,1 l8:7 u9,8 s1:10,1 l11:2", "a1,1 s3:2,1 s3:3,3 s3:4,1 s2:5,1 s3:6,6 s3:7,1 s3:8,8 s2:9,1 s3:10,10 s1:11,1 s2:12,0");
    (641011325, "l1:6 u2,1 s3:2,3 s3:4,1 l5:7 a6,5 s3:7,7 s1:8,8 s3:9,1 s2:10,10", "s3:1,1 s3:2,2 s1:3,1 s3:4,0 s3:5,1 s3:6,1 s3:7,0 s3:8,1 s1:9,9 s3:10,1 s2:11,11");
    (1093007300, "l1:1 s3:2,1 s2:3,1 s1:4,1 l5:13 u6,5 s2:7,1 s1:8,8 s2:9,1 s2:10,10 l11:2", "s2:1,0 s3:2,1 s2:3,1 s2:4,4 s3:5,0 s3:6,4 s1:1,7 s1:8,1 s3:9,1 s1:10,1 s3:11,1 s2:12,12 s2:13,13 s2:14,0");
    (1790354321, "s3:1,1 l2:5 s2:3,3 s3:4,4 u5,2 s3:6,6 s1:7,1 s1:8,8 s3:9,1 s2:10,1 s2:11,11 l12:3 s1:13,1", "s2:1,0 s3:2,1 s1:3,3 s3:4,4 s2:5,3 s1:6,1 s3:7,7 s2:8,1 s1:9,9 s1:10,1 s3:11,11 s3:12,1 s3:13,0 s1:14,1");
    (1380824738, "l1:9 s1:1,2 s3:2,3 s3:4,1 l5:6 a6,5 s1:7,7 s1:8,1 s1:9,9 l10:3 s1:11,1 l12:1", "s3:1,0 s3:2,1 s3:3,3 s2:4,1 a5,5 s3:6,1 s2:7,1 s3:8,8 s1:9,1 s2:10,1 s2:11,1 s3:12,0 s1:13,1 s1:14,0");
    (1887655278, "l1:12 s2:1,2 s3:2,3 s2:4,1 l5:3 s1:6,1 s2:7,7 s1:8,1 s2:9,9 l10:3 u11,1 l12:1", "s2:1,0 s3:2,1 a3,3 s3:4,3 s3:5,5 s2:6,3 s1:7,1 s3:8,8 s3:9,9 s2:10,1 s1:11,11 s1:12,1 s2:13,1 s1:14,14 s1:15,0");
    (1496453452, "s2:1,1 s3:2,1 l3:9 u4,3 s1:5,1 s2:6,1 s1:7,1 s3:8,8 s2:9,1 l10:5 u11,10 l12:2", "s3:1,1 s1:2,1 s2:3,3 s3:4,1 s3:5,1 s1:6,6 s2:7,1 s3:8,0 s3:9,1 s2:10,10 s3:11,1 s1:12,1 s2:13,0");
    (2147483647, "l1:31 u2,1", "s3:1,1 s3:2,1 s2:3,0 s3:4,3 s2:5,3 s3:6,6 s2:7,1 s2:8,1 s2:9,1 s2:10,1 s2:11,1 s2:12,1 s1:13,13 s1:14,1");
    (1073741825, "l1:29 s1:2,1", "s3:1,0 s3:2,0 s3:3,0 s3:4,0 s3:5,0 s3:6,0 s3:7,0 s3:8,0 s3:9,0 s3:10,1");
    (1431655765, "l1:15 s1:2,1 l3:8 a4,3 l5:4 a6,5 s2:7,7", "s3:1,1 s3:2,1 s2:3,0 s3:4,3 s2:5,3 s3:6,6 s2:7,1 s2:8,1 s2:9,1 s2:10,1 s2:11,1 s2:12,1 s2:13,1");
    (1048576, "l1:20", "s3:1,0 s3:2,0 s3:3,0 s3:4,0 s3:5,0 s3:6,0 s2:7,0");
  ]

(* The same pins for 32- and 33-bit targets (powers of two and their
   neighbours, reciprocal multipliers from Div_magic and
   Div_magic_modern, and seeded random values), captured like the list
   above from a build that still divided in the descent's factor tests.
   Shifts above 31 in the widest chains are what the descent returns
   there; 32-bit callers filter them out. *)
let golden_chains_wide =
  [
    (2147483648, "l1:31", "s3:1,0 s3:2,0 s3:3,0 s3:4,0 s3:5,0 s3:6,0 s3:7,0 s3:8,0 s3:9,0 s3:10,0 s1:11,0");
    (2147483649, "l1:30 s1:2,1", "s3:1,0 s3:2,0 s3:3,0 s3:4,0 s3:5,0 s3:6,0 s3:7,0 s3:8,0 s3:9,0 s3:10,0 s1:11,1");
    (2487862334, "s3:1,1 s2:2,1 l3:9 a4,3 l5:3 u6,1 l7:3 s1:8,1 l9:3 s1:10,1 l11:5 u12,1 l13:1", "s3:1,1 s2:2,1 s3:3,3 s2:4,1 s1:5,5 s2:6,1 s3:7,7 s1:8,1 s3:9,9 s2:10,1 s2:11,11 s2:12,1 s1:13,13 s1:14,1 s1:15,0");
    (2526130317, "s1:1,1 u0,2 s3:2,3 l4:9 u5,2 s3:6,1 s3:7,7 l8:6 u9,1 l10:4 a11,10 s1:12,12", "s1:1,1 s3:1,2 s3:3,3 s3:4,3 s2:5,0 s3:6,1 s3:7,1 s1:8,8 s3:9,0 s2:10,1 s3:11,0 s1:12,1 s1:13,1 s2:14,1");
    (2528518399, "l1:5 s3:2,1 s1:3,3 s1:4,1 s2:5,1 s3:6,1 s3:7,1 s2:8,8 s2:9,9 l10:8 u11,1", "s2:1,1 s3:2,0 s3:3,1 s1:4,1 s2:5,0 s3:6,1 s3:7,1 s2:8,8 s2:9,1 s1:10,1 s2:11,1 s2:12,1 s2:13,1 s1:14,14 s1:15,1");
    (2643056797, "l1:9 s3:2,1 l3:6 u4,3 l5:5 s1:6,1 s2:7,7 l8:3 u9,1 s2:10,1", "s1:1,1 s1:2,1 s3:3,0 s3:4,0 s3:5,0 s3:6,3 s2:7,7 s3:8,0 s3:9,0 s1:10,1 s1:11,11 s2:12,1 s1:13,13 s2:14,1");
    (2688548863, "l1:4 s2:2,2 s3:3,1 l4:22 u5,1", "s2:1,1 s3:2,2 s3:3,3 s3:4,1 s2:5,5 s1:1,6 s3:7,7 s1:8,8 s2:9,1 s2:10,1 s2:11,1 s2:12,1 s2:13,1 s1:14,14 s1:15,1");
    (2748779069, "s2:1,1 s3:2,1 l3:10 u4,3 l5:4 s1:6,1 s2:7,1 s3:8,1 l9:4 u10,1 s2:11,1", "s2:1,1 s3:2,2 s2:3,1 s1:4,4 s3:5,5 s3:6,4 s2:7,1 s3:8,8 s3:9,9 s3:10,10 s1:11,11 s1:12,1 s2:13,1");
    (2863311531, "l1:15 s1:2,1 l3:8 a4,3 l5:4 a6,5 s2:7,7 s1:8,1", "s3:1,1 s3:2,1 s2:3,0 s3:4,3 s2:5,3 s3:6,6 s2:7,1 s2:8,1 s2:9,1 s2:10,1 s2:11,1 s2:12,1 s2:13,1 s1:14,1");
    (3123612579, "l1:7 s3:2,1 l3:9 s1:4,1 l5:5 u6,5 l7:4 s1:8,1 s1:9,9", "s1:1,1 s3:1,2 s2:3,0 s3:4,1 s3:5,5 s1:6,1 s3:7,0 s3:8,0 s2:9,1 s1:10,1 s2:11,11 s1:12,1 s3:13,0 s2:14,1 s1:15,15");
    (3430613503, "l1:6 s2:1,2 s3:3,1 s2:4,1 s3:5,1 s1:6,6 l7:6 s1:8,1 l9:9 u10,1", "a1,1 s3:2,1 s2:3,0 s3:4,1 s2:5,1 s3:6,1 s3:7,0 s3:8,0 s3:9,1 s2:10,1 s2:11,1 s2:12,1 s1:13,13 s1:14,1");
    (3435973837, "l1:15 s1:2,1 l3:8 a4,3 l5:4 a6,5 s1:7,7 s2:8,1", "s2:1,1 s3:2,1 a3,3 s3:4,3 s2:5,5 s2:6,3 s2:7,7 s3:8,0 s1:9,1 s3:10,0 s1:11,1 s3:12,0 s1:13,1 s1:14,14 s2:15,1");
    (3762434181, "s3:1,1 s3:2,2 l3:6 u4,3 s3:5,1 l6:5 s1:7,1 s1:8,1 s3:9,9 s2:10,1 s2:11,11 s2:12,1", "s1:1,1 s1:2,1 s3:3,3 s3:4,4 s3:5,5 s3:6,1 s3:7,0 s3:8,1 s1:9,1 s3:10,10 s2:11,1 s2:12,12 s2:13,1");
    (3773495693, "l1:11 u2,1 s2:3,1 s2:4,4 s2:5,5 s2:6,1 l7:5 u8,1 s1:9,9 s1:10,1 s1:11,11 s1:12,1 s2:13,1", "s1:1,1 s3:2,1 s2:3,1 s3:4,4 s3:5,5 s3:1,6 s2:7,7 s1:8,8 s3:9,1 s1:10,10 s1:11,1 s2:12,12 s3:13,0 s1:14,1 s1:15,1 s2:16,1");
    (3958305274, "s3:1,1 s2:2,1 l3:12 a4,3 s1:5,1 l6:4 a7,6 s2:8,1 s2:9,1 s1:10,10 s1:11,1 s2:12,1 l13:1", "s2:1,0 s3:2,1 s3:3,1 s3:4,1 s1:5,5 s3:6,6 s3:7,1 s1:8,8 s1:9,1 s2:10,10 s1:11,1 s3:12,12 s1:13,1 s2:14,1 s1:15,0");
    (4184241547, "l1:12 s1:1,1 s3:3,2 u4,1 s3:5,1 l6:5 u7,6 s2:8,1 s2:9,1 s1:10,1 l11:3 s1:12,1 s2:13,1 s1:14,1", "s2:1,1 s2:2,1 s3:3,1 s1:4,4 s3:4,5 s3:6,6 s1:7,4 s3:8,8 s1:9,1 s3:10,10 s3:11,1 s2:12,1 s1:13,1 s1:14,1 s1:15,15 s1:16,1");
    (4277882667, "l1:1 s3:2,1 l3:9 u4,1 s2:5,1 s1:6,1 l7:8 u8,1 s2:9,9 s1:10,1 s3:11,1 s1:12,12", "s1:1,1 s3:1,2 s2:3,3 s3:4,4 s3:5,1 s3:6,6 s2:7,7 s2:8,8 s1:9,1 s2:10,10 s1:11,1 s2:12,12 s1:13,1 s3:14,1 s1:15,15");
    (4294967295, "l1:32 u2,1", "s3:1,1 s3:2,1 s2:3,0 s3:4,3 s2:5,3 s3:6,6 s2:7,1 s2:8,1 s2:9,1 s2:10,1 s2:11,1 s2:12,1 s2:13,1 s1:14,14");
    (4294967296, "l1:32", "s3:1,0 s3:2,0 s3:3,0 s3:4,0 s3:5,0 s3:6,0 s3:7,0 s3:8,0 s3:9,0 s3:10,0 s2:11,0");
    (4294967297, "l1:31 s1:2,1", "s3:1,0 s3:2,0 s3:3,0 s3:4,0 s3:5,0 s3:6,0 s3:7,0 s3:8,0 s3:9,0 s3:10,0 s2:11,1");
    (4398046511, "l1:6 s3:2,1 s3:3,1 s2:4,4 s1:5,1 s3:6,6 s1:7,1 s1:8,8 s2:9,1 s2:10,1 l11:5 u12,11 s1:13,1 s1:14,1", "s1:1,1 s3:2,1 s3:3,1 s3:4,4 s3:5,5 s3:1,6 s3:7,7 s1:8,1 s2:9,9 s1:10,1 s2:11,11 s2:12,12 s1:13,13 s1:14,1 s2:15,15 s1:16,1");
    (4441546600, "l1:9 s3:1,1 u2,3 s2:4,4 s3:5,5 s1:6,6 s2:7,1 l8:9 u9,8 s2:10,1 l11:3", "s3:1,1 s2:2,1 s3:3,0 s3:4,3 s3:5,3 s1:6,1 s1:7,7 s2:8,1 s1:9,9 s2:10,1 s2:11,1 s2:12,12 s2:13,13 s3:14,0");
    (4503595123, "l1:7 u2,1 s3:3,1 l4:5 u5,4 s3:6,1 s1:7,1 l8:4 u9,1 l10:5 u11,10 s3:12,12 s1:13,1", "s1:1,1 s3:2,1 s3:3,1 s3:4,4 s3:5,5 s3:1,6 s1:7,7 s3:8,1 s2:9,9 s2:10,1 s1:11,1 s3:12,0 s1:13,1 s3:14,14 s1:15,1");
    (4826387121, "l1:12 s2:1,1 u2,3 s2:4,1 s1:5,1 l6:4 s1:7,1 s3:8,8 s2:9,1 s2:10,1 s1:11,1 l12:3 s1:13,1", "s1:1,1 s3:2,1 s2:3,1 s3:4,4 s3:5,1 s1:6,1 s3:7,1 s3:8,8 s3:9,9 s2:10,1 s2:11,1 s1:12,1 s3:13,0 s1:14,1");
    (4908534053, "l1:3 s3:2,1 s3:3,3 s3:4,1 l5:15 a6,5 s3:7,1 s2:8,1", "s3:1,0 s3:2,1 s3:3,0 s3:4,1 s3:5,0 s3:6,1 s3:7,0 s3:8,1 s3:9,9 s3:10,1 s2:11,1");
    (5979775537, "l1:5 s1:2,2 s3:3,1 s2:4,4 s2:5,5 s2:6,6 s1:7,1 s3:8,8 s3:9,1 s3:10,10 s1:11,11 l12:3 s1:13,1", "s1:1,1 s3:1,2 s3:3,1 s1:4,4 s3:5,5 s3:6,1 s2:7,7 s1:8,1 s3:9,9 s3:10,1 s3:11,11 s1:12,12 s3:13,0 s1:14,1");
    (6035388331, "l1:10 u2,1 s2:3,1 l4:6 s1:5,1 s2:6,1 l7:4 u8,1 s1:9,9 s1:10,1 s2:11,11 s1:12,12 s1:13,1", "s1:1,1 s2:2,0 s3:3,1 s3:4,4 s3:5,1 s2:6,6 s1:1,7 s3:8,0 s3:9,1 s3:10,10 s2:11,11 s1:12,1 s2:13,13 s1:14,14 s1:15,1");
    (6247225157, "l1:7 s3:2,1 l3:9 s1:4,1 l5:5 u6,5 s1:7,7 l8:3 s1:9,1 s2:10,1", "s1:1,1 s3:1,2 s2:3,0 s3:4,1 s3:5,5 s1:6,1 s3:7,0 s3:8,0 s2:9,1 s1:10,1 s2:11,11 s1:12,1 s1:13,13 s3:14,0 s1:15,1 s2:16,1");
    (6621447680, "l1:7 s1:2,2 s2:3,2 u4,1 s3:5,1 s3:6,6 s1:7,1 s3:8,8 s1:9,9 s1:10,1 l11:9", "s1:1,1 s3:2,1 s2:3,1 s2:4,0 s3:5,1 s3:6,1 s2:7,7 s2:8,8 s1:9,1 s1:10,1 s2:11,11 s3:12,0 s3:13,0 s3:14,0");
    (6866678519, "l1:9 u2,1 s3:3,3 s2:4,1 s1:5,5 s2:6,1 s3:7,1 s3:8,8 s1:9,9 s1:10,1 s3:11,11 l12:3 u13,1", "s1:1,1 s2:2,0 s3:3,1 s3:4,0 s3:5,1 s3:6,6 s3:7,1 s2:8,1 s1:9,1 s2:10,10 s2:11,1 s1:12,12 s1:13,1 s2:14,1 s1:15,1 s1:16,1");
    (7748389759, "l1:6 s2:1,2 s3:3,1 s3:4,4 s1:1,5 s3:6,1 l7:8 a8,7 s1:9,9 s1:10,1 l11:7 u12,1", "s2:1,1 s3:2,1 s2:3,3 s2:4,1 s2:5,0 s3:6,1 s1:7,1 s3:8,1 s1:9,9 s3:10,1 s3:11,1 s2:12,1 s2:13,1 s1:14,14 s1:15,1");
    (8094720996, "l1:5 u2,1 s2:3,1 l4:8 u5,4 l6:7 s1:7,1 l8:5 u9,8 s3:10,1 l11:2", "s3:1,1 s1:2,1 s3:3,0 s3:4,3 s3:5,1 s2:6,1 s2:7,7 s3:8,0 s3:9,1 s1:10,1 s2:11,11 s1:12,1 s3:13,1 s2:14,0");
    (8589934591, "l1:33 u2,1", "s3:1,1 s3:2,1 s2:3,0 s3:4,3 s2:5,3 s3:6,6 s2:7,1 s2:8,1 s2:9,1 s2:10,1 s2:11,1 s2:12,1 s2:13,1 s1:14,14 s1:15,1");
  ]

let test_golden_chains () =
  List.iter
    (fun (n, fast, mono) ->
      Alcotest.(check string)
        (Printf.sprintf "fast %d" n)
        fast
        (render (Chain_rules.find ~mode:Fast n));
      Alcotest.(check string)
        (Printf.sprintf "monotonic %d" n)
        mono
        (render (Chain_rules.find ~mode:Monotonic n)))
    (golden_chains @ golden_chains_wide)

(* ------------------------------------------------------------------ *)
(* Golden reply digest: four keys per bit length 2..31, both signs     *)

let golden_keys =
  [
    (`Mul, 3);
    (`Mul, -3);
    (`Div, 2);
    (`Div, -2);
    (`Mul, 4);
    (`Mul, -7);
    (`Div, 6);
    (`Div, -6);
    (`Mul, 11);
    (`Mul, -11);
    (`Div, 8);
    (`Div, -10);
    (`Mul, 22);
    (`Mul, -27);
    (`Div, 18);
    (`Div, -30);
    (`Mul, 56);
    (`Mul, -40);
    (`Div, 52);
    (`Div, -57);
    (`Mul, 102);
    (`Mul, -75);
    (`Div, 109);
    (`Div, -123);
    (`Mul, 230);
    (`Mul, -177);
    (`Div, 250);
    (`Div, -223);
    (`Mul, 475);
    (`Mul, -487);
    (`Div, 342);
    (`Div, -342);
    (`Mul, 578);
    (`Mul, -560);
    (`Div, 663);
    (`Div, -580);
    (`Mul, 1771);
    (`Mul, -2021);
    (`Div, 1194);
    (`Div, -1466);
    (`Mul, 3466);
    (`Mul, -2429);
    (`Div, 2562);
    (`Div, -2532);
    (`Mul, 6606);
    (`Mul, -5646);
    (`Div, 5069);
    (`Div, -5669);
    (`Mul, 16307);
    (`Mul, -13588);
    (`Div, 10600);
    (`Div, -15232);
    (`Mul, 23316);
    (`Mul, -22640);
    (`Div, 30229);
    (`Div, -26169);
    (`Mul, 57475);
    (`Mul, -59058);
    (`Div, 60395);
    (`Div, -49083);
    (`Mul, 113500);
    (`Mul, -129434);
    (`Div, 82445);
    (`Div, -70332);
    (`Mul, 231703);
    (`Mul, -207067);
    (`Div, 197150);
    (`Div, -236958);
    (`Mul, 284126);
    (`Mul, -388387);
    (`Div, 346356);
    (`Div, -497432);
    (`Mul, 806495);
    (`Mul, -642903);
    (`Div, 835211);
    (`Div, -637205);
    (`Mul, 1817314);
    (`Mul, -1493027);
    (`Div, 2054459);
    (`Div, -1512924);
    (`Mul, 3774365);
    (`Mul, -3904433);
    (`Div, 3678253);
    (`Div, -2759536);
    (`Mul, 6741575);
    (`Mul, -6618551);
    (`Div, 5644555);
    (`Div, -6875449);
    (`Mul, 8672490);
    (`Mul, -13986231);
    (`Div, 14060790);
    (`Div, -10148835);
    (`Mul, 30537213);
    (`Mul, -26614658);
    (`Div, 32977085);
    (`Div, -20214661);
    (`Mul, 51135921);
    (`Mul, -61735933);
    (`Div, 65256522);
    (`Div, -49346566);
    (`Mul, 91826315);
    (`Mul, -114431527);
    (`Div, 110857567);
    (`Div, -68648892);
    (`Mul, 225644338);
    (`Mul, -188180570);
    (`Div, 268235138);
    (`Div, -251083861);
    (`Mul, 274369418);
    (`Mul, -533702096);
    (`Div, 355341110);
    (`Div, -471937530);
    (`Mul, 736338688);
    (`Mul, -681350248);
    (`Div, 638256747);
    (`Div, -727956657);
    (`Mul, 2050322983);
    (`Mul, -1703916202);
    (`Div, 1375971382);
    (`Div, -2133755906);
    (`Div, 23);
    (`Div, 25);
    (`Div, -25);
    (`Mul, 625);
    (`Div, 7);
  ]

let plan (op, v) =
  let name, f =
    match op with `Mul -> ("MUL", Plan.mul) | `Div -> ("DIV", Plan.div)
  in
  (* The reply lines, and the selector's artifact for the same key. *)
  match f (Int32.of_int v) with
  | Ok (payload, artifact) ->
      ( Printf.sprintf "%s %d\nOK %s\n" name v payload,
        Printf.sprintf "%s %d %s\n" name v (Plan.render_artifact artifact) )
  | Error e ->
      ( Printf.sprintf "%s %d\nERR %s\n" name v e,
        Printf.sprintf "%s %d ERR\n" name v )

let md5 parts = Digest.to_hex (Digest.string (String.concat "" parts))

let test_golden_replies () =
  let replies = List.map plan golden_keys in
  Alcotest.(check int) "key count" 125 (List.length golden_keys);
  Alcotest.(check string) "reply digest" "056125d1644b2b115e473ea9274b267f"
    (md5 (List.map fst replies));
  Alcotest.(check string) "artifact digest" "de28e826f60c4d8868259ab594e758a3"
    (md5 (List.map snd replies))

(* ------------------------------------------------------------------ *)
(* Seeds: the shared table remembers exhaustive search's own chains    *)

(* Every target of the 2^16 table with a chain of at most three steps is
   seeded with the chain the per-target search returns at the target's
   exhaustive length; no other target gets a chain that short. *)
let test_seed_chains () =
  let limit = 1 lsl 16 in
  let cap = (4 * limit) + 16 in
  let table = Chain_rules.table Chain_rules.Fast ~limit in
  let lengths = Chain_search.lengths_table ~cap ~max_len:3 ~limit () in
  let seeded = ref 0 in
  for n = 2 to limit do
    match Chain_search.length_of lengths n with
    | Some l ->
        incr seeded;
        Alcotest.(check string)
          (Printf.sprintf "seed %d" n)
          (render (Chain_search.find ~cap ~max_len:l n))
          (render (Chain_rules.chain table n))
    | None -> (
        match Chain_rules.cost table n with
        | Some c when c <= 3 ->
            Alcotest.failf "%d: %d steps, but no chain of <= 3 exists" n c
        | Some _ | None -> ())
  done;
  Alcotest.(check int) "seeded targets" 943 !seeded

(* ------------------------------------------------------------------ *)
(* Division-free factor tests                                          *)

(* The factors the descent tests: 3, 5, 9 and 2^k -/+ 1, k = 4..31. *)
let descent_factors =
  [ 3; 5; 9 ]
  @ List.concat_map
      (fun k -> [ (1 lsl k) - 1; (1 lsl k) + 1 ])
      (List.init 28 (fun i -> i + 4))

let check_quotient f n =
  let expect = if n mod f = 0 then Some (n / f) else None in
  if Chain_rules.exact_quotient f n <> expect then
    Alcotest.failf "exact_quotient %d %d <> %s" f n
      (match expect with Some q -> string_of_int q | None -> "None")

(* Around 0, 1, each factor's multiples, the top multiple below 2^62 and
   the widths the descent meets. *)
let test_quotient_boundaries () =
  List.iter
    (fun f ->
      let top = max_int / f * f in
      List.iter
        (fun n -> if n >= 0 then check_quotient f n)
        [
          0; 1; 2; f - 1; f; f + 1; 2 * f; (2 * f) + 1; (f * f) - 1; f * f;
          top - f; top - 1; top; top + 1; max_int - 1; max_int;
          (1 lsl 31) - 1; 1 lsl 31; (1 lsl 31) + 1; (1 lsl 32) - 1;
          1 lsl 32; (1 lsl 32) + 1; (1 lsl 33) + 1; (1 lsl 61) - 1; 1 lsl 61;
          (1 lsl 61) + 1;
        ])
    descent_factors

let gen_dividend =
  let open QCheck.Gen in
  let word21 = int_bound ((1 lsl 21) - 1) in
  let wide =
    map3 (fun a b c -> (a lsl 42) lor (b lsl 21) lor c)
      (int_bound ((1 lsl 20) - 1)) word21 word21
  in
  frequency
    [
      (3, wide);
      (* multiples of a factor, and their neighbours *)
      ( 3,
        map3
          (fun f q d -> max 0 ((f * (q mod (max_int / f))) + d))
          (oneofl descent_factors) wide (int_range (-1) 1) );
      (1, map (fun b -> 1 lsl b) (int_range 0 61));
    ]

let prop_exact_quotient =
  QCheck.Test.make ~name:"inverse test = mod test, every factor, n < 2^62"
    ~count:2000
    (QCheck.make ~print:string_of_int gen_dividend)
    (fun n ->
      List.iter (fun f -> check_quotient f n) descent_factors;
      true)

(* ------------------------------------------------------------------ *)
(* History independence                                                *)

let gen_const =
  QCheck.Gen.(
    map (fun (b, r) -> (1 lsl b) + (r mod (1 lsl b))) (pair (int_range 0 30) nat))

let gen_mode = QCheck.Gen.oneofl [ Chain_rules.Fast; Chain_rules.Monotonic ]

let prop_history_independent =
  let query = QCheck.Gen.pair gen_mode gen_const in
  QCheck.Test.make ~name:"find is history-independent" ~count:60
    (QCheck.make
       ~print:(fun (prefix, (_, n)) ->
         Printf.sprintf "n=%d after %d queries" n (List.length prefix))
       QCheck.Gen.(pair (list_size (int_range 0 24) query) query))
    (fun (prefix, (mode, n)) ->
      let fresh =
        Domain.join (Domain.spawn (fun () -> Chain_rules.find ~mode n))
      in
      List.iter (fun (mode, k) -> ignore (Chain_rules.find ~mode k)) prefix;
      Chain_rules.find ~mode n = fresh)

(* ------------------------------------------------------------------ *)
(* Concurrent domains                                                  *)

(* Run [f] and [g] on two fresh domains released at the same instant. *)
let in_two_domains f g =
  let ready = Atomic.make 0 in
  let start h () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    h ()
  in
  let a = Domain.spawn (start f) and b = Domain.spawn (start g) in
  (Domain.join a, Domain.join b)

(* The 17-31-bit golden keys plus the divisors a shared, unsynchronised
   memo once planned differently from two shards, and the digest of
   their replies in this order, captured with the golden digest. *)
let race_keys =
  List.filter (fun (_, v) -> abs v >= 1 lsl 16) golden_keys
  @ [ (`Div, 23); (`Div, 25); (`Div, -25) ]

let race_digest = "54c428098b3c2291caf480c160446303"

(* Each round starts two fresh domains, so every per-domain cache starts
   cold; the one-domain run comes last so that it cannot warm anything
   the concurrent rounds read. *)
let test_concurrent_plans () =
  let rounds =
    List.init 20 (fun _ ->
        in_two_domains
          (fun () -> List.map plan race_keys)
          (* Evaluates in reverse key order, returns in key order. *)
          (fun () -> List.rev_map plan (List.rev race_keys)))
  in
  let sequential =
    Domain.join (Domain.spawn (fun () -> List.map plan race_keys))
  in
  Alcotest.(check string) "one-domain digest" race_digest
    (md5 (List.map fst sequential));
  List.iteri
    (fun round (forward, backward) ->
      List.iteri
        (fun i ((expect, _), ((f, _), (b, _))) ->
          let label dir = Printf.sprintf "round %d key %d %s" round i dir in
          Alcotest.(check string) (label "forward") expect f;
          Alcotest.(check string) (label "backward") expect b)
        (List.combine sequential (List.combine forward backward)))
    rounds

(* Body-equivalence certification forces the canonical library image
   and its fall-through marks; two domains doing so at once must both
   succeed. This suite runs first, so neither is built when the two
   domains start. *)
let test_concurrent_w64_certify () =
  let requests =
    [
      Strategy.w64_mul Strategy.Unsigned; Strategy.w64_div Strategy.Unsigned;
      Strategy.w64_div Strategy.Signed; Strategy.w64_rem Strategy.Unsigned;
      Strategy.w64_divl;
    ]
  in
  let certify () =
    List.map
      (fun req ->
        match Selector.choose ~require_certified:true req with
        | Error e -> Alcotest.failf "%s: %s" (Strategy.request_id req) e
        | Ok choice -> (
            match choice.Selector.certificate with
            | None -> Alcotest.failf "%s: no certificate" (Strategy.request_id req)
            | Some cert -> cert.Certificate.digest))
      requests
  in
  let a, b = in_two_domains certify certify in
  Alcotest.(check (list string)) "same certificates" a b

(* A digest reads each dependency library's encoded words, computed on
   first use. This suite runs first, so no library's words are computed
   yet when two domains digest at once a millicode call-through and a
   divide by a constant that tail-calls [Div_gen]'s divide, in opposite
   orders. Both must get the digests a later sequential pass gives. *)
let test_concurrent_digest () =
  let emit name req =
    match Strategy.find name with
    | None -> Alcotest.failf "no strategy %s" name
    | Some s -> (
        match s.Strategy.emit req with
        | Ok em -> em
        | Error e -> Alcotest.failf "%s: %s" name e)
  in
  let depends_on lib (em : Strategy.emission) =
    match em.Strategy.deps with [ d ] -> d == lib | _ -> false
  in
  let millicode = emit "mul_millicode" (Strategy.mul_var ()) in
  let fallback =
    let rec find c =
      if c > 1000 then Alcotest.fail "no divisor below 1000 tail-calls divU"
      else
        let req = Strategy.div_const Strategy.Unsigned (Int32.of_int c) in
        let em = emit "div_const" req in
        if depends_on Div_gen.source em then em else find (c + 1)
    in
    find 3
  in
  Alcotest.(check bool) "millicode dependency" true
    (depends_on Millicode.source millicode);
  let digest em =
    match Strategy.digest em with
    | Ok d -> d
    | Error e -> Alcotest.failf "digest: %s" e
  in
  let a, b =
    in_two_domains
      (fun () -> List.map digest [ millicode; fallback ])
      (fun () -> List.rev_map digest [ fallback; millicode ])
  in
  let sequential = List.map digest [ millicode; fallback ] in
  Alcotest.(check (list string)) "first domain" sequential a;
  Alcotest.(check (list string)) "second domain" sequential b

(* ------------------------------------------------------------------ *)
(* Bounded per-domain caches                                           *)

let test_cache_bound () =
  Domain.join
    (Domain.spawn (fun () ->
         let seen = Hashtbl.create 20_000 in
         let state = ref 0x2B992DDFA23249D6 in
         let rec fresh () =
           state := ((!state * 25214903917) + 11) land 0xFFFFFFFFFFFF;
           let b = 2 + ((!state lsr 20) mod 30) in
           let n = (1 lsl b) + ((!state lsr 16) land ((1 lsl b) - 1)) in
           if Hashtbl.mem seen n then fresh ()
           else begin
             Hashtbl.add seen n ();
             n
           end
         in
         let keys =
           List.init 20_000 (fun i ->
               ((if i mod 4 = 0 then Chain_rules.Monotonic else Chain_rules.Fast),
                fresh ()))
         in
         let peak = Hashtbl.create 2 in
         let first =
           List.map
             (fun (mode, n) ->
               let c = render (Chain_rules.find ~mode n) in
               List.iter
                 (fun (name, entries, cap) ->
                   if entries > cap then
                     Alcotest.failf "%s cache holds %d > %d" name entries cap;
                   let p = Option.value (Hashtbl.find_opt peak name) ~default:0 in
                   Hashtbl.replace peak name (max p entries))
                 (Chain_rules.domain_cache_sizes ());
               c)
             keys
         in
         List.iter
           (fun (name, _, cap) ->
             if name = "results" then
               Alcotest.(check int) "results cache filled to its cap" cap
                 (Hashtbl.find peak name))
           (Chain_rules.domain_cache_sizes ());
         List.iteri
           (fun i ((mode, n), c) ->
             if i < 2_000 then
               Alcotest.(check string)
                 (Printf.sprintf "re-planned %d" n)
                 c
                 (render (Chain_rules.find ~mode n)))
           (List.combine keys first)))

let suite =
  [
    ( "descent:domains",
      [
        Alcotest.test_case "concurrent W64 certification" `Quick
          test_concurrent_w64_certify;
        Alcotest.test_case "two domains digest like one" `Quick
          test_concurrent_digest;
        Alcotest.test_case "two domains plan like one" `Quick
          test_concurrent_plans;
      ] );
    ( "descent:golden",
      [
        Alcotest.test_case "pinned chains" `Quick test_golden_chains;
        Alcotest.test_case "pinned reply digest" `Quick test_golden_replies;
        Alcotest.test_case "seeds are exhaustive search's chains" `Quick
          test_seed_chains;
        Alcotest.test_case "factor tests at the boundaries" `Quick
          test_quotient_boundaries;
      ] );
    Util.qsuite "descent:props" [ prop_history_independent; prop_exact_quotient ];
    ( "descent:cache",
      [ Alcotest.test_case "bounded under 20k constants" `Quick test_cache_bound ] );
  ]
