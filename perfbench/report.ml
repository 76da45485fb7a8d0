(* The result line: one JSON object with the outcome counts and the
   metrics, printed as the last line of standard output. *)

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable first_failures : string list;  (* a few, for stderr *)
}

let outcome () = { attempted = 0; failed = 0; first_failures = [] }

(* Count one checked operation; [Error] is a failed one. *)
let tally o = function
  | Ok () -> o.attempted <- o.attempted + 1
  | Error why ->
      o.attempted <- o.attempted + 1;
      o.failed <- o.failed + 1;
      if List.length o.first_failures < 5 then
        o.first_failures <- why :: o.first_failures

(* A run-level failure that is not one operation (a shape check of the
   server counters, a missing reply): counts as one failed operation. *)
let fail o why = tally o (Error why)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let print o metrics =
  List.iter (Printf.eprintf "perfbench: FAILED %s\n") (List.rev o.first_failures);
  let bad = List.filter (fun x -> not (Float.is_finite x.value)) metrics in
  List.iter
    (fun x -> Printf.eprintf "perfbench: metric %s is not finite\n" x.name)
    bad;
  let correct = o.failed = 0 && bad = [] && o.attempted > 0 in
  let body =
    String.concat ","
      (List.map
         (fun x ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" x.name
             (Printf.sprintf "%.17g" (if Float.is_finite x.value then x.value else 0.))
             x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct (max 1 o.attempted) o.failed body;
  correct
