(* Thread- and domain-safe metrics registry + bounded event tracer.
   See obs.mli for the contract. Hot paths (counter bump, histogram
   observe) are single atomic RMWs; the registry mutex guards only
   metric interning and snapshots. *)

module Counter = struct
  type t = int Atomic.t

  let create () = Atomic.make 0
  let incr t = Atomic.incr t
  let add t n = ignore (Atomic.fetch_and_add t n)
  let get = Atomic.get
  let reset t = Atomic.set t 0
end

module Gauge = struct
  type t = float Atomic.t

  let create () = Atomic.make 0.0
  let set t v = Atomic.set t v
  let get = Atomic.get
end

module Histogram = struct
  let buckets = 40

  type t = { counts : int Atomic.t array; sum : float Atomic.t }

  let create () =
    { counts = Array.init buckets (fun _ -> Atomic.make 0); sum = Atomic.make 0.0 }

  (* Log2 bucketing: bucket 0 holds < 1.0, bucket i (1 <= i <= buckets-2)
     holds [2^(i-1), 2^i), and the last bucket is an explicit overflow
     bucket for everything at or above 2^(buckets-2) — its upper bound is
     +Inf, so saturated percentiles report +Inf instead of a fake finite
     value. *)
  let bucket_of v =
    if v < 1.0 then 0
    else begin
      let b = ref 0 and x = ref v in
      while !x >= 1.0 && !b < buckets - 1 do
        x := !x /. 2.0;
        incr b
      done;
      !b
    end

  let rec atomic_add_float a x =
    let v = Atomic.get a in
    if not (Atomic.compare_and_set a v (v +. x)) then atomic_add_float a x

  let observe t v =
    Atomic.incr t.counts.(bucket_of v);
    atomic_add_float t.sum v

  let count t = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 t.counts
  let sum t = Atomic.get t.sum
  let bucket_counts t = Array.map Atomic.get t.counts
  let bucket_upper b =
    if b = 0 then 1.0
    else if b >= buckets - 1 then infinity
    else Float.of_int (1 lsl b)

  let percentile t q =
    let counts = bucket_counts t in
    let total = Array.fold_left ( + ) 0 counts in
    if total = 0 then 0.0
    else begin
      let rank = Float.to_int (ceil (q /. 100.0 *. Float.of_int total)) in
      let rank = max 1 (min total rank) in
      let acc = ref 0 and b = ref 0 in
      (try
         for i = 0 to buckets - 1 do
           acc := !acc + counts.(i);
           if !acc >= rank then begin
             b := i;
             raise Exit
           end
         done
       with Exit -> ());
      bucket_upper !b
    end

  let reset t =
    Array.iter (fun c -> Atomic.set c 0) t.counts;
    Atomic.set t.sum 0.0
end

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of { count : int; sum : float; buckets : (float * int) array }

type sample = {
  name : string;
  labels : (string * string) list;
  help : string;
  value : value;
}

module Registry = struct
  type kind =
    | Counter_m of Counter.t
    | Gauge_m of Gauge.t
    | Histogram_m of Histogram.t
    | Fn_counter_m of (unit -> int)
    | Fn_gauge_m of (unit -> float)

  type metric = {
    m_name : string;
    m_labels : (string * string) list;
    m_help : string;
    m_kind : kind;
  }

  type t = {
    lock : Mutex.t;
    index : (string, metric) Hashtbl.t;  (* key = name + rendered labels *)
  }

  let create () = { lock = Mutex.create (); index = Hashtbl.create 64 }

  let sort_labels labels =
    List.sort (fun (a, _) (b, _) -> String.compare a b) labels

  let render_labels labels =
    String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) labels)

  let key name labels = name ^ "{" ^ render_labels labels ^ "}"

  let kind_name = function
    | Counter_m _ | Fn_counter_m _ -> "counter"
    | Gauge_m _ | Fn_gauge_m _ -> "gauge"
    | Histogram_m _ -> "histogram"

  let with_lock t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  (* Get-or-create: returns the existing metric when the key is already
     bound (checking the kind), otherwise interns [fresh ()]. *)
  let intern t ~help ~labels name fresh =
    let labels = sort_labels labels in
    let k = key name labels in
    with_lock t (fun () ->
        match Hashtbl.find_opt t.index k with
        | Some m ->
            let f = fresh () in
            if kind_name m.m_kind <> kind_name f then
              invalid_arg
                (Printf.sprintf "Obs.Registry: %s already registered as %s"
                   k (kind_name m.m_kind));
            m.m_kind
        | None ->
            let m =
              { m_name = name; m_labels = labels; m_help = help;
                m_kind = fresh () }
            in
            Hashtbl.replace t.index k m;
            m.m_kind)

  let counter t ?(help = "") ?(labels = []) name =
    match intern t ~help ~labels name (fun () -> Counter_m (Counter.create ())) with
    | Counter_m c -> c
    | _ -> invalid_arg ("Obs.Registry.counter: kind mismatch for " ^ name)

  let gauge t ?(help = "") ?(labels = []) name =
    match intern t ~help ~labels name (fun () -> Gauge_m (Gauge.create ())) with
    | Gauge_m g -> g
    | _ -> invalid_arg ("Obs.Registry.gauge: kind mismatch for " ^ name)

  let histogram t ?(help = "") ?(labels = []) name =
    match
      intern t ~help ~labels name (fun () -> Histogram_m (Histogram.create ()))
    with
    | Histogram_m h -> h
    | _ -> invalid_arg ("Obs.Registry.histogram: kind mismatch for " ^ name)

  (* Replace-if-present registration of externally owned metrics. *)
  let register t ~help ~labels name kind =
    let labels = sort_labels labels in
    let k = key name labels in
    with_lock t (fun () ->
        Hashtbl.replace t.index k
          { m_name = name; m_labels = labels; m_help = help; m_kind = kind })

  let register_counter t ?(help = "") ?(labels = []) name c =
    register t ~help ~labels name (Counter_m c)

  let register_histogram t ?(help = "") ?(labels = []) name h =
    register t ~help ~labels name (Histogram_m h)

  let fn_counter t ?(help = "") ?(labels = []) name f =
    register t ~help ~labels name (Fn_counter_m f)

  let fn_gauge t ?(help = "") ?(labels = []) name f =
    register t ~help ~labels name (Fn_gauge_m f)

  let sample_of m =
    let value =
      match m.m_kind with
      | Counter_m c -> Counter_v (Counter.get c)
      | Fn_counter_m f -> Counter_v (f ())
      | Gauge_m g -> Gauge_v (Gauge.get g)
      | Fn_gauge_m f -> Gauge_v (f ())
      | Histogram_m h ->
          let counts = Histogram.bucket_counts h in
          let cum = ref 0 and out = ref [] in
          Array.iteri
            (fun i c ->
              cum := !cum + c;
              if c > 0 then out := (Histogram.bucket_upper i, !cum) :: !out)
            counts;
          Histogram_v
            {
              count = !cum;
              sum = Histogram.sum h;
              buckets = Array.of_list (List.rev !out);
            }
    in
    { name = m.m_name; labels = m.m_labels; help = m.m_help; value }

  let snapshot t =
    let metrics =
      with_lock t (fun () ->
          Hashtbl.fold (fun _ m acc -> m :: acc) t.index [])
    in
    let metrics =
      List.sort
        (fun a b ->
          match String.compare a.m_name b.m_name with
          | 0 ->
              String.compare (render_labels a.m_labels)
                (render_labels b.m_labels)
          | c -> c)
        metrics
    in
    List.map sample_of metrics
end

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let escape buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  (* JSON has no literal for non-finite values; emit them as quoted
     Prometheus-style strings so the document stays parseable. *)
  let float_lexeme f =
    if f = infinity then "\"+Inf\""
    else if f = neg_infinity then "\"-Inf\""
    else if Float.is_nan f then "\"NaN\""
    else if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.1f" f
    else Printf.sprintf "%g" f

  let write_seq buf opening closing item items =
    Buffer.add_char buf opening;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        item x)
      items;
    Buffer.add_char buf closing

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f -> Buffer.add_string buf (float_lexeme f)
    | Str s ->
        Buffer.add_char buf '"';
        escape buf s;
        Buffer.add_char buf '"'
    | List items -> write_seq buf '[' ']' (write buf) items
    | Obj fields ->
        write_seq buf '{' '}'
          (fun (k, v) ->
            write buf (Str k);
            Buffer.add_char buf ':';
            write buf v)
          fields


  let to_string v =
    let buf = Buffer.create 256 in
    write buf v;
    Buffer.contents buf

  exception Bad of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') -> incr pos; skip_ws ()
      | _ -> ()
    in
    let expect c =
      if peek () = Some c then incr pos
      else fail (Printf.sprintf "expected %C" c)
    in
    let literal word value =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then (pos := !pos + l; value)
      else fail ("expected " ^ word)
    in
    let hex4 () =
      let digit () =
        match peek () with
        | Some ('0' .. '9' as c) -> incr pos; Char.code c - 48
        | Some ('a' .. 'f' as c) -> incr pos; Char.code c - 87
        | Some ('A' .. 'F' as c) -> incr pos; Char.code c - 55
        | _ -> fail "bad \\u escape"
      in
      let a = digit () in
      let b = digit () in
      let c = digit () in
      (a lsl 12) lor (b lsl 8) lor (c lsl 4) lor digit ()
    in
    let string_lit () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> incr pos; Buffer.contents buf
        | Some '\\' ->
            incr pos;
            (match peek () with
            | Some (('"' | '\\' | '/') as c) -> incr pos; Buffer.add_char buf c
            | Some 'n' -> incr pos; Buffer.add_char buf '\n'
            | Some 't' -> incr pos; Buffer.add_char buf '\t'
            | Some 'r' -> incr pos; Buffer.add_char buf '\r'
            | Some 'b' -> incr pos; Buffer.add_char buf '\b'
            | Some 'f' -> incr pos; Buffer.add_char buf '\012'
            | Some 'u' ->
                incr pos;
                let u = hex4 () in
                (* a surrogate half is no character on its own *)
                if not (Uchar.is_valid u) then fail "unsupported \\u escape";
                Buffer.add_utf_8_uchar buf (Uchar.of_int u)
            | _ -> fail "bad escape");
            go ()
        | Some c -> incr pos; Buffer.add_char buf c; go ()
      in
      go ()
    in
    (* An integer lexeme is an [Int] when it fits, a fraction or an
       exponent makes a [Float], so a reader can tell 2 from 2.0. *)
    let number () =
      let start = !pos in
      let integral = ref true in
      let rec scan () =
        match peek () with
        | Some ('0' .. '9' | '-' | '+') -> incr pos; scan ()
        | Some ('.' | 'e' | 'E') -> integral := false; incr pos; scan ()
        | _ -> ()
      in
      scan ();
      let lexeme = String.sub s start (!pos - start) in
      match
        if !integral then Option.map (fun i -> Int i) (int_of_string_opt lexeme)
        else None
      with
      | Some v -> v
      | None -> (
          match float_of_string_opt lexeme with
          | Some f -> Float f
          | None -> fail (Printf.sprintf "bad number %S" lexeme))
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
          Obj
            (seq '}' (fun () ->
                 skip_ws ();
                 let key = string_lit () in
                 skip_ws ();
                 expect ':';
                 (key, value ())))
      | Some '[' -> List (seq ']' value)
      | Some '"' -> Str (string_lit ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> number ()
      | Some c -> fail (Printf.sprintf "unexpected %C" c)
      | None -> fail "unexpected end of input"
    (* The items of an array or object, after its opening bracket. *)
    and seq : 'a. char -> (unit -> 'a) -> 'a list =
     fun closing item ->
      incr pos;
      skip_ws ();
      if peek () = Some closing then (incr pos; [])
      else
        let rec go acc =
          let x = item () in
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos; go (x :: acc)
          | Some c when c = closing -> incr pos; List.rev (x :: acc)
          | _ -> fail (Printf.sprintf "expected , or %C" closing)
        in
        go []
    in
    try
      let v = value () in
      skip_ws ();
      if !pos <> n then Error (Printf.sprintf "trailing bytes at byte %d" !pos)
      else Ok v
    with Bad msg -> Error msg

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None
end

module Export = struct
  let escape_label v =
    let buf = Buffer.create (String.length v + 2) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '"' -> Buffer.add_string buf "\\\""
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      v;
    Buffer.contents buf

  let prom_labels = function
    | [] -> ""
    | labels ->
        "{"
        ^ String.concat ","
            (List.map
               (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v))
               labels)
        ^ "}"

  (* Render a float the way Prometheus clients conventionally do: integral
     values without an exponent, others with enough digits to round-trip,
     non-finite values in the exposition-format spelling. *)
  let prom_float f =
    if f = infinity then "+Inf"
    else if f = neg_infinity then "-Inf"
    else if Float.is_nan f then "NaN"
    else if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else Printf.sprintf "%g" f

  let type_of = function
    | Counter_v _ -> "counter"
    | Gauge_v _ -> "gauge"
    | Histogram_v _ -> "histogram"

  let prometheus samples =
    let buf = Buffer.create 1024 in
    let last_family = ref "" in
    List.iter
      (fun s ->
        if s.name <> !last_family then begin
          last_family := s.name;
          if s.help <> "" then
            Buffer.add_string buf
              (Printf.sprintf "# HELP %s %s\n" s.name s.help);
          Buffer.add_string buf
            (Printf.sprintf "# TYPE %s %s\n" s.name (type_of s.value))
        end;
        match s.value with
        | Counter_v n ->
            Buffer.add_string buf
              (Printf.sprintf "%s%s %d\n" s.name (prom_labels s.labels) n)
        | Gauge_v g ->
            Buffer.add_string buf
              (Printf.sprintf "%s%s %s\n" s.name (prom_labels s.labels)
                 (prom_float g))
        | Histogram_v { count; sum; buckets } ->
            Array.iter
              (fun (le, cum) ->
                (* The overflow bucket's upper bound is +Inf; its count is
                   already carried by the unconditional +Inf line below. *)
                if Float.is_finite le then
                  Buffer.add_string buf
                    (Printf.sprintf "%s_bucket%s %d\n" s.name
                       (prom_labels (s.labels @ [ ("le", prom_float le) ]))
                       cum))
              buckets;
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket%s %d\n" s.name
                 (prom_labels (s.labels @ [ ("le", "+Inf") ]))
                 count);
            Buffer.add_string buf
              (Printf.sprintf "%s_sum%s %s\n" s.name (prom_labels s.labels)
                 (prom_float sum));
            Buffer.add_string buf
              (Printf.sprintf "%s_count%s %d\n" s.name (prom_labels s.labels)
                 count))
      samples;
    Buffer.contents buf

  let json samples =
    let open Json in
    let metric s =
      let value =
        match s.value with
        | Counter_v n -> [ ("value", Int n) ]
        | Gauge_v g -> [ ("value", Float g) ]
        | Histogram_v { count; sum; buckets } ->
            let bucket (le, cum) = List [ Float le; Int cum ] in
            [
              ("count", Int count);
              ("sum", Float sum);
              ("buckets", List (List.map bucket (Array.to_list buckets)));
            ]
      in
      Obj
        (("name", Str s.name)
        :: ("type", Str (type_of s.value))
        :: ("labels", Obj (List.map (fun (k, v) -> (k, Str v)) s.labels))
        :: value)
    in
    to_string
      (Obj
         [
           ("schema", Str "hppa-obs/1");
           ("metrics", List (List.map metric samples));
         ])

  (* Parser for our own exposition format: enough for the scrape check in
     CI and for round-trip tests. *)
  let parse_sample_line line =
    (* name{k="v",...} value   |   name value *)
    let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
    let is_name_char c =
      (c >= 'a' && c <= 'z')
      || (c >= 'A' && c <= 'Z')
      || (c >= '0' && c <= '9')
      || c = '_' || c = ':'
    in
    let n = String.length line in
    let i = ref 0 in
    while !i < n && is_name_char line.[!i] do incr i done;
    if !i = 0 then fail "metric line must start with a name: %S" line
    else begin
      let name = String.sub line 0 !i in
      let labels = ref [] in
      let ok = ref (Ok ()) in
      (if !i < n && line.[!i] = '{' then begin
         incr i;
         let stop = ref false in
         while (not !stop) && Result.is_ok !ok do
           if !i >= n then ok := fail "unterminated labels: %S" line
           else if line.[!i] = '}' then begin
             incr i;
             stop := true
           end
           else begin
             let ls = !i in
             while !i < n && line.[!i] <> '=' do incr i done;
             if !i >= n then ok := fail "label without '=': %S" line
             else begin
               let lname = String.sub line ls (!i - ls) in
               incr i;
               if !i >= n || line.[!i] <> '"' then
                 ok := fail "label value must be quoted: %S" line
               else begin
                 incr i;
                 let buf = Buffer.create 16 in
                 let vstop = ref false in
                 while (not !vstop) && Result.is_ok !ok do
                   if !i >= n then ok := fail "unterminated label value: %S" line
                   else
                     match line.[!i] with
                     | '"' -> incr i; vstop := true
                     | '\\' when !i + 1 < n ->
                         let c = line.[!i + 1] in
                         Buffer.add_char buf
                           (match c with 'n' -> '\n' | c -> c);
                         i := !i + 2
                     | c -> Buffer.add_char buf c; incr i
                 done;
                 if Result.is_ok !ok then begin
                   labels := (lname, Buffer.contents buf) :: !labels;
                   if !i < n && line.[!i] = ',' then incr i
                 end
               end
             end
           end
         done
       end);
      match !ok with
      | Error _ as e -> e
      | Ok () ->
          let rest = String.trim (String.sub line !i (n - !i)) in
          let value =
            match rest with
            | "+Inf" -> Some infinity
            | "-Inf" -> Some neg_infinity
            | "NaN" -> Some nan
            | r -> float_of_string_opt r
          in
          (match value with
          | None -> fail "bad sample value %S in %S" rest line
          | Some v -> Ok (name, List.rev !labels, v))
    end

  let parse_prometheus text =
    let lines = String.split_on_char '\n' text in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | line :: rest -> (
          let line = String.trim line in
          if line = "" then go acc rest
          else if String.length line > 0 && line.[0] = '#' then go acc rest
          else
            match parse_sample_line line with
            | Ok s -> go (s :: acc) rest
            | Error _ as e -> e)
    in
    go [] lines

  let find samples name =
    List.find_map
      (fun (n, _, v) -> if String.equal n name then Some v else None)
      samples
end

module Trace = struct
  type field = Json.t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of Json.t list
    | Obj of (string * Json.t) list

  type event = { seq : int; name : string; fields : (string * field) list }

  type t = {
    lock : Mutex.t;
    ring : event option array;
    capacity : int;
    mutable next_seq : int;
  }

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Obs.Trace.create: capacity must be > 0";
    {
      lock = Mutex.create ();
      ring = Array.make capacity None;
      capacity;
      next_seq = 0;
    }

  let emit t name fields =
    Mutex.lock t.lock;
    let seq = t.next_seq in
    t.ring.(seq mod t.capacity) <- Some { seq; name; fields };
    t.next_seq <- seq + 1;
    Mutex.unlock t.lock

  let emitted t =
    Mutex.lock t.lock;
    let n = t.next_seq in
    Mutex.unlock t.lock;
    n

  let dropped t = max 0 (emitted t - t.capacity)

  let events t =
    Mutex.lock t.lock;
    let n = t.next_seq in
    let first = max 0 (n - t.capacity) in
    let out = ref [] in
    for seq = n - 1 downto first do
      match t.ring.(seq mod t.capacity) with
      | Some e -> out := e :: !out
      | None -> ()
    done;
    Mutex.unlock t.lock;
    !out

  let to_jsonl t =
    String.concat ""
      (List.map
         (fun e ->
           Json.to_string
             (Json.Obj (("seq", Int e.seq) :: ("ev", Str e.name) :: e.fields))
           ^ "\n")
         (events t))

  let write_jsonl t oc = output_string oc (to_jsonl t)
end
